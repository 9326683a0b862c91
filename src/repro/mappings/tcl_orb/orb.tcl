# orb.tcl — the small Tcl ORB behind the IDL-Tcl mapping.
#
# This is the reproduction of the ORB the paper reports building in
# "about two weeks and 700 lines of tcl code" (Section 4.2) to integrate
# an existing Tcl management GUI with a CORBA-based system.  It speaks
# the HeidiRMI newline-terminated ASCII wire protocol, so stubs
# generated by the tcl_orb mapping pack interoperate directly with the
# Python HeidiRMI runtime (and with a human on a telnet connection).
#
# Structure:
#   Wire       — token escaping for the text protocol
#   ObjRef     — stringified object-reference parsing/building
#   Call       — marshal/unmarshal of primitives, request/reply I/O
#   Connector  — cached client connections (one per host:port)
#   Stub       — generic client stub base class (Fig. 10: "inherit Stub")
#   Skel       — generic delegation skeleton base class
#   BOA        — the basic object adapter: object table, bootstrap
#                port, request demultiplexing and dispatch

package require Itcl
namespace import -force itcl::*

# ---------------------------------------------------------------------------
# Wire: token escaping (matches repro.heidirmi.textwire)
# ---------------------------------------------------------------------------

namespace eval Wire {

    # Escape an arbitrary string into a single wire token.
    proc escape {s} {
        if {$s eq ""} {
            return "%e"
        }
        set out ""
        foreach ch [split $s ""] {
            switch -exact -- $ch {
                "%"     { append out "%25" }
                " "     { append out "%20" }
                "\n"    { append out "%0A" }
                "\r"    { append out "%0D" }
                "\t"    { append out "%09" }
                default { append out $ch }
            }
        }
        return $out
    }

    # Invert escape.
    proc unescape {t} {
        if {$t eq "%e"} {
            return ""
        }
        set out ""
        set i 0
        set n [string length $t]
        while {$i < $n} {
            set ch [string index $t $i]
            if {$ch eq "%"} {
                set code [string range $t [expr {$i + 1}] [expr {$i + 2}]]
                if {[string length $code] != 2} {
                    error "truncated escape in token '$t'"
                }
                append out [format %c [scan $code %x]]
                incr i 3
            } else {
                append out $ch
                incr i
            }
        }
        return $out
    }
}

# ---------------------------------------------------------------------------
# ObjRef: @proto:host:port#oid#typeid strings
# ---------------------------------------------------------------------------

namespace eval ObjRef {

    # Parse a stringified reference into a dict.
    proc parse {ref} {
        if {[string index $ref 0] ne "@"} {
            error "object reference must start with '@': $ref"
        }
        set body [string range $ref 1 end]
        set hash1 [string first "#" $body]
        set hash2 [string first "#" $body [expr {$hash1 + 1}]]
        if {$hash1 < 0 || $hash2 < 0} {
            error "object reference needs url#oid#type parts: $ref"
        }
        set url [string range $body 0 [expr {$hash1 - 1}]]
        set oid [string range $body [expr {$hash1 + 1}] [expr {$hash2 - 1}]]
        set type [string range $body [expr {$hash2 + 1}] end]
        set parts [split $url ":"]
        if {[llength $parts] != 3} {
            error "bootstrap URL must be protocol:host:port: $url"
        }
        return [dict create \
            protocol [lindex $parts 0] host [lindex $parts 1] \
            port [lindex $parts 2] oid $oid type $type]
    }

    # Build the stringified form back from components.
    proc build {protocol host port oid type} {
        return "@$protocol:$host:$port#$oid#$type"
    }
}

# ---------------------------------------------------------------------------
# Call: the unit of one remote invocation
# ---------------------------------------------------------------------------

class Call {
    protected variable sock_ ""
    protected variable header_ ""
    protected variable oneway_ 0
    protected variable wtokens_ {}
    protected variable rtokens_ {}
    protected variable rpos_ 0
    public variable status "OK"
    public variable errorId ""

    constructor {sock header oneway} {
        set sock_ $sock
        set header_ $header
        set oneway_ $oneway
    }

    # -- marshalling (insert into the outgoing token list) ------------------

    public method insertString {s}  { lappend wtokens_ [Wire::escape $s] }
    public method insertLong {n}    { lappend wtokens_ [expr {int($n)}] }
    public method insertShort {n}   { lappend wtokens_ [expr {int($n)}] }
    public method insertOctet {n}   { lappend wtokens_ [expr {int($n)}] }
    public method insertFloat {x}   { lappend wtokens_ [expr {double($x)}] }
    public method insertDouble {x}  { lappend wtokens_ [expr {double($x)}] }
    public method insertChar {c}    { lappend wtokens_ [Wire::escape $c] }
    public method insertEnum {name} { lappend wtokens_ [Wire::escape $name] }
    public method insertBoolean {b} {
        lappend wtokens_ [expr {$b ? "T" : "F"}]
    }
    public method insertObjRef {ref} {
        if {$ref eq ""} {
            lappend wtokens_ "nil"
        } else {
            # Object parameters carry a by-value discriminator first
            # (boolean false: a reference follows), as in the Python ORB.
            lappend wtokens_ [Wire::escape $ref]
        }
    }
    public method insertObject {ref} {
        insertBoolean 0
        insertObjRef $ref
    }
    public method beginStruct {} { lappend wtokens_ "\{" }
    public method endStruct {}   { lappend wtokens_ "\}" }
    public method insertSequence {values insertMethod} {
        beginStruct
        insertLong [llength $values]
        foreach v $values { $this $insertMethod $v }
        endStruct
    }

    # -- unmarshalling (extract from the incoming token list) ----------------

    protected method nextToken {} {
        if {$rpos_ >= [llength $rtokens_]} {
            error "ran out of reply tokens"
        }
        set t [lindex $rtokens_ $rpos_]
        incr rpos_
        return $t
    }

    public method extractString {} { return [Wire::unescape [nextToken]] }
    public method extractLong {}   { return [expr {int([nextToken])}] }
    public method extractShort {}  { return [expr {int([nextToken])}] }
    public method extractOctet {}  { return [expr {int([nextToken])}] }
    public method extractFloat {}  { return [expr {double([nextToken])}] }
    public method extractDouble {} { return [expr {double([nextToken])}] }
    public method extractChar {}   { return [Wire::unescape [nextToken]] }
    public method extractEnum {}   { return [Wire::unescape [nextToken]] }
    public method extractBoolean {} {
        set t [nextToken]
        if {$t eq "T"} { return 1 }
        if {$t eq "F"} { return 0 }
        error "expected boolean token, got '$t'"
    }
    public method extractObjRef {} {
        set t [nextToken]
        if {$t eq "nil"} { return "" }
        return [Wire::unescape $t]
    }
    public method extractObject {} {
        set byValue [extractBoolean]
        if {$byValue} {
            error "by-value objects are not supported by the tcl ORB"
        }
        return [extractObjRef]
    }
    public method beginExtract {} {
        set t [nextToken]
        if {$t ne "\{"} { error "expected begin marker, got '$t'" }
    }
    public method endExtract {} {
        set t [nextToken]
        if {$t ne "\}"} { error "expected end marker, got '$t'" }
    }
    public method extractSequence {extractMethod} {
        beginExtract
        set n [extractLong]
        set values {}
        for {set i 0} {$i < $n} {incr i} {
            lappend values [$this $extractMethod]
        }
        endExtract
        return $values
    }

    # -- server-side plumbing -------------------------------------------------

    # Load request argument tokens for skeleton extraction.
    public method loadRequest {tokens} {
        set rtokens_ $tokens
        set rpos_ 0
    }

    # The tokens the skeleton inserted, for the reply line.
    public method replyTokens {} {
        return $wtokens_
    }

    # -- client-side I/O ----------------------------------------------------------

    # Send the request; on a two-way call, read and parse the reply so
    # subsequent extract* calls see the result tokens.
    public method send {} {
        set line [concat $header_ $wtokens_]
        puts $sock_ [join $line " "]
        flush $sock_
        if {$oneway_} {
            return
        }
        set reply [gets $sock_]
        if {$reply eq "" && [eof $sock_]} {
            error "connection closed by peer"
        }
        set parts [split $reply " "]
        if {[lindex $parts 0] ne "RET"} {
            error "malformed reply line: $reply"
        }
        set status [lindex $parts 1]
        if {$status eq "OK"} {
            set rtokens_ [lrange $parts 2 end]
            set rpos_ 0
        } else {
            set errorId [Wire::unescape [lindex $parts 2]]
            set detail ""
            if {[llength $parts] > 3} {
                set detail [Wire::unescape [lindex $parts 3]]
            }
            error "remote $status $errorId: $detail"
        }
    }

    # Return the call object to the ORB (Fig. 10: "$c release").
    public method release {} {
        itcl::delete object $this
    }
}

# ---------------------------------------------------------------------------
# Connector: cached client connections
# ---------------------------------------------------------------------------

class Connector {
    protected variable sock_ ""
    protected variable host_ ""
    protected variable port_ 0

    constructor {host port} {
        set host_ $host
        set port_ $port
        set sock_ [socket $host $port]
        fconfigure $sock_ -translation lf -buffering none -encoding ascii
    }

    destructor {
        catch {close $sock_}
    }

    # A fresh request Call addressed at a stub's object (Fig. 10:
    # "$pb_connector_ getRequestCall $this \"print\" 0").
    public method getRequestCall {stub op oneway} {
        set verb [expr {$oneway ? "ONEWAY" : "CALL"}]
        set header [list $verb [Wire::escape [$stub ior]] [Wire::escape $op]]
        return [namespace current]::[Call #auto $sock_ $header $oneway]
    }

    public method close {} {
        catch {::close $sock_}
    }
}

namespace eval ConnectorCache {
    variable cache
    array set cache {}

    # Connections are cached and reused; only when there is no available
    # connection is a new one opened (paper, Section 3.1).
    proc get {host port} {
        variable cache
        set key "$host:$port"
        if {[info exists cache($key)]} {
            return $cache($key)
        }
        set conn [uplevel #0 [list Connector #auto $host $port]]
        set cache($key) $conn
        return $conn
    }

    proc forConnectorOf {ref} {
        set parsed [ObjRef::parse $ref]
        return [get [dict get $parsed host] [dict get $parsed port]]
    }
}

# ---------------------------------------------------------------------------
# Stub: generic client-side base class
# ---------------------------------------------------------------------------

class Stub {
    protected variable pb_ior_ ""
    protected variable pb_connector_ ""

    constructor {ior connector} {
        set pb_ior_ $ior
        set pb_connector_ $connector
    }

    public method ior {} {
        return $pb_ior_
    }
}

# Create a typed stub for a stringified reference: the type information
# in the reference selects the stub class registered via
# BOA::addIdlMapping ("the type information ensures that the correct
# stub and skeleton is utilized in accessing the object").
proc createStub {ref} {
    set parsed [ObjRef::parse $ref]
    set cls [BOA::classForType [dict get $parsed type]]
    if {$cls eq ""} {
        error "no stub class registered for [dict get $parsed type]"
    }
    set conn [ConnectorCache::forConnectorOf $ref]
    return [uplevel #0 [list ${cls}Stub #auto $ref $conn]]
}

# ---------------------------------------------------------------------------
# Skel: generic server-side delegation skeleton
# ---------------------------------------------------------------------------

class Skel {
    protected variable pb_obj_ ""

    constructor {implObj} {
        set pb_obj_ $implObj
    }

    # Dispatch by invoking the method named after the operation; a
    # missing method means "not handled here" so the BOA can report
    # MethodNotFound (generated subclasses rely on Itcl inheritance for
    # the recursive walk up the skeleton hierarchy).
    public method dispatch {op call} {
        if {[catch {$this $op $call} err]} {
            if {[string match "*bad option*" $err] ||
                [string match "*unknown method*" $err]} {
                return 0
            }
            # The operation ran and failed: surface the real error.
            error $err
        }
        return 1
    }
}

# ---------------------------------------------------------------------------
# BOA: basic object adapter — object table, bootstrap port, dispatch
# ---------------------------------------------------------------------------

namespace eval BOA {
    variable typeToClass
    array set typeToClass {}
    variable objects
    array set objects {}
    variable nextOid 1
    variable listenSock ""
    variable listenPort 0
    variable hostname "127.0.0.1"

    # Associate a Tcl class with a repository ID (Fig. 10:
    # "BOA::addIdlMapping ::Receiver \"IDL:Receiver:1.0\"").
    proc addIdlMapping {cls repoId} {
        variable typeToClass
        set typeToClass($repoId) $cls
    }

    proc classForType {repoId} {
        variable typeToClass
        if {[info exists typeToClass($repoId)]} {
            return $typeToClass($repoId)
        }
        return ""
    }

    # Open the bootstrap port (0 picks an ephemeral port).
    proc listen {{port 0}} {
        variable listenSock
        variable listenPort
        set listenSock [socket -server BOA::accept $port]
        set listenPort [lindex [fconfigure $listenSock -sockname] 2]
        return $listenPort
    }

    proc port {} {
        variable listenPort
        return $listenPort
    }

    # Register an implementation object under a repository ID; returns
    # the stringified object reference.
    proc register {impl repoId} {
        variable objects
        variable nextOid
        variable listenPort
        variable hostname
        set cls [classForType $repoId]
        if {$cls eq ""} {
            error "no skeleton class registered for $repoId"
        }
        set skel [uplevel #0 [list ${cls}Skel #auto $impl]]
        set oid $nextOid
        incr nextOid
        set objects($oid) $skel
        return [ObjRef::build tcp $hostname $listenPort $oid $repoId]
    }

    proc accept {chan addr clientPort} {
        fconfigure $chan -translation lf -buffering none \
            -encoding ascii -blocking 0
        fileevent $chan readable [list BOA::handle $chan]
    }

    proc handle {chan} {
        variable objects
        if {[eof $chan]} {
            catch {close $chan}
            return
        }
        if {[gets $chan line] < 0} {
            return
        }
        set parts [split $line " "]
        set verb [lindex $parts 0]
        if {$verb ne "CALL" && $verb ne "ONEWAY"} {
            puts $chan "RET ERR Protocol [Wire::escape "expected CALL or ONEWAY"]"
            return
        }
        # ctx=<trace> and dl=<ms> may precede the reference, in either
        # order: the trace context is skipped; a budget of 0 is spent.
        set head 1
        set spent 0
        while {[regexp {^(ctx|dl)=(.*)$} [lindex $parts $head] -> key ms]} {
            if {$key eq "dl"} {
                if {![string is digit -strict $ms]} {
                    puts $chan "RET ERR Protocol [Wire::escape "bad deadline token 'dl=$ms'"]"
                    return
                }
                set spent [expr {$ms == 0}]
            }
            incr head
        }
        set ref [Wire::unescape [lindex $parts $head]]
        set op [Wire::unescape [lindex $parts [incr head]]]
        set args [lrange $parts [incr head] end]
        if {[catch {set parsed [ObjRef::parse $ref]} err]} {
            puts $chan "RET ERR Protocol [Wire::escape $err]"
            return
        }
        if {$spent} {
            # As the Python server does: a two-way is told, a oneway dropped.
            if {$verb eq "CALL"} {
                puts $chan "RET ERR DeadlineExceeded [Wire::escape "request '$op' expired before dispatch"]"
            }
            return
        }
        set oid [dict get $parsed oid]
        if {![info exists objects($oid)]} {
            puts $chan "RET ERR ObjectNotFound [Wire::escape "no object $oid"]"
            return
        }
        set skel $objects($oid)
        set call [uplevel #0 [list Call #auto $chan "" 0]]
        $call loadRequest $args
        if {[catch {set handled [$skel dispatch $op $call]} err]} {
            if {$verb eq "CALL"} {
                puts $chan "RET ERR Implementation [Wire::escape $err]"
            }
            $call release
            return
        }
        if {$verb eq "ONEWAY"} {
            $call release
            return
        }
        if {$handled} {
            set tokens [$call replyTokens]
            if {[llength $tokens] > 0} {
                puts $chan "RET OK [join $tokens " "]"
            } else {
                puts $chan "RET OK"
            }
        } else {
            puts $chan "RET ERR MethodNotFound [Wire::escape "no method $op"]"
        }
        $call release
    }
}
