"""Compiled-template cache.

"The first step of the code-generation stage need only be performed
once for a particular code-generation template" (paper, Section 4.1).
The cache keys on the template source text, so editing a template
invalidates its entry naturally; entries hold the compiled generator
(the step-1 output) ready for repeated step-2 executions.
"""

import hashlib
import threading

from repro.templates.compiler import compile_template


class TemplateCache:
    """Source-keyed cache of compiled templates, with hit statistics."""

    def __init__(self, max_entries=256):
        self._entries = {}
        self._order = []
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self.stats = {"hits": 0, "misses": 0}

    @staticmethod
    def _key(source, name):
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        return (name, digest)

    def get(self, source, name="<template>", loader=None):
        """The compiled template for *source*, compiling on first use."""
        key = self._key(source, name)
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self.stats["hits"] += 1
                return compiled
        compiled = compile_template(source, name=name, loader=loader)
        with self._lock:
            self.stats["misses"] += 1
            if key not in self._entries:
                self._entries[key] = compiled
                self._order.append(key)
                while len(self._order) > self._max_entries:
                    evicted = self._order.pop(0)
                    self._entries.pop(evicted, None)
        return compiled

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._order.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)
