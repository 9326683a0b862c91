/* HdCall.java - the Call object of the Java mapping (paper Fig. 4).
 *
 * A call accumulates typed tokens, sends one text-protocol line
 * through its connector, and exposes the reply tokens for typed
 * extraction - the same structure as the generated Tcl and Python
 * stubs use, so a Java client interoperates with the Python ORB.
 */

import java.io.IOException;
import java.util.ArrayList;
import java.util.List;
import java.util.Vector;

public final class HdCall {
    private final HdConnector connector;
    private final String header;
    private final boolean oneway;
    private final List<String> outTokens = new ArrayList<String>();
    private List<String> inTokens = new ArrayList<String>();
    private int position = 0;

    HdCall(HdConnector connector, String header, boolean oneway) {
        this.connector = connector;
        this.header = header;
        this.oneway = oneway;
    }

    /* -- marshalling -------------------------------------------------- */

    public void insertBoolean(boolean value) {
        outTokens.add(value ? "T" : "F");
    }

    public void insertLong(long value) {
        outTokens.add(Long.toString(value));
    }

    public void insertDouble(double value) {
        outTokens.add(Double.toString(value));
    }

    public void insertString(String value) {
        outTokens.add(HdWire.escape(value));
    }

    public void insertChar(char value) {
        outTokens.add(HdWire.escape(String.valueOf(value)));
    }

    public void insertEnum(String memberName) {
        outTokens.add(HdWire.escape(memberName));
    }

    public void insertObject(HdObjRef ref) {
        insertBoolean(false);  /* by-reference discriminator */
        outTokens.add(ref == null ? "nil" : HdWire.escape(ref.stringify()));
    }

    public void beginSeq() {
        outTokens.add("{");
    }

    public void endSeq() {
        outTokens.add("}");
    }

    public void insertStringSeq(Vector<String> values) {
        beginSeq();
        insertLong(values.size());
        for (String value : values) insertString(value);
        endSeq();
    }

    public void insertLongSeq(Vector<Long> values) {
        beginSeq();
        insertLong(values.size());
        for (Long value : values) insertLong(value.longValue());
        endSeq();
    }

    public void insertObjectSeq(Vector<HdObjRef> values) {
        beginSeq();
        insertLong(values.size());
        for (HdObjRef value : values) insertObject(value);
        endSeq();
    }

    /* -- I/O ------------------------------------------------------------- */

    public void send() throws HdRemoteException {
        StringBuilder line = new StringBuilder(header);
        for (String token : outTokens) {
            line.append(' ').append(token);
        }
        try {
            String reply = connector.exchange(line.toString(), oneway);
            if (oneway) {
                return;
            }
            String[] parts = reply.split(" ");
            if (parts.length < 2 || !parts[0].equals("RET")) {
                throw new HdRemoteException("Protocol",
                                            "malformed reply: " + reply);
            }
            if (parts[1].equals("OK")) {
                inTokens = new ArrayList<String>();
                for (int i = 2; i < parts.length; i++) {
                    inTokens.add(parts[i]);
                }
                position = 0;
                return;
            }
            String repoId = parts.length > 2 ? HdWire.unescape(parts[2]) : "";
            String detail = parts.length > 3 ? HdWire.unescape(parts[3]) : "";
            throw new HdRemoteException(repoId, detail);
        } catch (IOException error) {
            throw new HdRemoteException("Communication", error.toString());
        }
    }

    public void release() {
        outTokens.clear();
        inTokens.clear();
    }

    /* -- unmarshalling ------------------------------------------------------ */

    private String next() throws HdRemoteException {
        if (position >= inTokens.size()) {
            throw new HdRemoteException("Marshal", "ran out of reply tokens");
        }
        return inTokens.get(position++);
    }

    public boolean extractBoolean() throws HdRemoteException {
        String token = next();
        if (token.equals("T")) return true;
        if (token.equals("F")) return false;
        throw new HdRemoteException("Marshal", "expected boolean, got " + token);
    }

    public long extractLong() throws HdRemoteException {
        return Long.parseLong(next());
    }

    public double extractDouble() throws HdRemoteException {
        return Double.parseDouble(next());
    }

    public String extractString() throws HdRemoteException {
        return HdWire.unescape(next());
    }

    public char extractChar() throws HdRemoteException {
        return HdWire.unescape(next()).charAt(0);
    }

    public int extractEnum(String[] members) throws HdRemoteException {
        String token = HdWire.unescape(next());
        for (int i = 0; i < members.length; i++) {
            if (members[i].equals(token)) return i;
        }
        return Integer.parseInt(token);
    }

    public HdObjRef extractObject() throws HdRemoteException {
        boolean byValue = extractBoolean();
        if (byValue) {
            throw new HdRemoteException(
                "Marshal", "by-value objects are not supported in Java");
        }
        String token = next();
        if (token.equals("nil")) return null;
        return HdObjRef.parse(HdWire.unescape(token));
    }

    public void beginExtract() throws HdRemoteException {
        String token = next();
        if (!token.equals("{")) {
            throw new HdRemoteException("Marshal", "expected '{', got " + token);
        }
    }

    public void endExtract() throws HdRemoteException {
        String token = next();
        if (!token.equals("}")) {
            throw new HdRemoteException("Marshal", "expected '}', got " + token);
        }
    }

    public Vector<String> extractStringSeq() throws HdRemoteException {
        beginExtract();
        long count = extractLong();
        Vector<String> values = new Vector<String>();
        for (long i = 0; i < count; i++) values.add(extractString());
        endExtract();
        return values;
    }

    public Vector<Long> extractLongSeq() throws HdRemoteException {
        beginExtract();
        long count = extractLong();
        Vector<Long> values = new Vector<Long>();
        for (long i = 0; i < count; i++) values.add(extractLong());
        endExtract();
        return values;
    }

    public Vector<HdObjRef> extractObjectSeq() throws HdRemoteException {
        beginExtract();
        long count = extractLong();
        Vector<HdObjRef> values = new Vector<HdObjRef>();
        for (long i = 0; i < count; i++) values.add(extractObject());
        endExtract();
        return values;
    }
}
