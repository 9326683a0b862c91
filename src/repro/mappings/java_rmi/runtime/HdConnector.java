/* HdConnector.java - cached connection to one bootstrap port.
 *
 * "Connections are cached and reused" (paper, Section 3.1): one socket
 * per host:port, reused across calls, reopened on failure.
 */

import java.io.BufferedReader;
import java.io.BufferedWriter;
import java.io.IOException;
import java.io.InputStreamReader;
import java.io.OutputStreamWriter;
import java.net.Socket;
import java.nio.charset.StandardCharsets;
import java.util.HashMap;
import java.util.Map;

public final class HdConnector {
    private static final Map<String, HdConnector> CACHE =
        new HashMap<String, HdConnector>();

    private final String host;
    private final int port;
    private Socket socket;
    private BufferedReader reader;
    private BufferedWriter writer;

    private HdConnector(String host, int port) {
        this.host = host;
        this.port = port;
    }

    public static synchronized HdConnector get(String host, int port) {
        String key = host + ":" + port;
        HdConnector connector = CACHE.get(key);
        if (connector == null) {
            connector = new HdConnector(host, port);
            CACHE.put(key, connector);
        }
        return connector;
    }

    public static HdConnector forRef(HdObjRef ref) {
        return get(ref.host, ref.port);
    }

    private void ensureOpen() throws IOException {
        if (socket != null && socket.isConnected() && !socket.isClosed()) {
            return;
        }
        socket = new Socket(host, port);
        socket.setTcpNoDelay(true);
        reader = new BufferedReader(new InputStreamReader(
            socket.getInputStream(), StandardCharsets.US_ASCII));
        writer = new BufferedWriter(new OutputStreamWriter(
            socket.getOutputStream(), StandardCharsets.US_ASCII));
    }

    /* A request call addressed at a stub's object (cf. Fig. 10's
     * "getRequestCall $this <op> <oneway>" in the Tcl mapping). */
    public HdCall getRequestCall(HdStub stub, String operation,
                                 boolean oneway) {
        String verb = oneway ? "ONEWAY" : "CALL";
        String header = verb + " " + HdWire.escape(stub.ior().stringify())
            + " " + HdWire.escape(operation);
        return new HdCall(this, header, oneway);
    }

    synchronized String exchange(String line, boolean oneway)
            throws IOException {
        ensureOpen();
        writer.write(line);
        writer.write('\n');
        writer.flush();
        if (oneway) {
            return "";
        }
        String reply = reader.readLine();
        if (reply == null) {
            close();
            throw new IOException("connection closed by peer");
        }
        return reply;
    }

    public synchronized void close() {
        try {
            if (socket != null) socket.close();
        } catch (IOException ignored) {
            /* already closing */
        }
        socket = null;
    }
}
