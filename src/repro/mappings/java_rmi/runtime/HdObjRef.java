/* HdObjRef.java - stringified object references for the Java mapping.
 *
 * The same three-part reference the paper describes (Section 3.1):
 * bootstrap URL, object identifier, object type, stringified as
 * "@tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0".
 */

public final class HdObjRef {
    public final String protocol;
    public final String host;
    public final int port;
    public final String objectId;
    public final String typeId;

    public HdObjRef(String protocol, String host, int port,
                    String objectId, String typeId) {
        this.protocol = protocol;
        this.host = host;
        this.port = port;
        this.objectId = objectId;
        this.typeId = typeId;
    }

    public static HdObjRef parse(String text) {
        if (text == null || !text.startsWith("@")) {
            throw new IllegalArgumentException(
                "object reference must start with '@': " + text);
        }
        String body = text.substring(1);
        int firstHash = body.indexOf('#');
        int secondHash = body.indexOf('#', firstHash + 1);
        if (firstHash < 0 || secondHash < 0) {
            throw new IllegalArgumentException(
                "object reference needs url#oid#type parts: " + text);
        }
        String url = body.substring(0, firstHash);
        String oid = body.substring(firstHash + 1, secondHash);
        String type = body.substring(secondHash + 1);
        String[] parts = url.split(":", -1);
        if (parts.length != 3) {
            throw new IllegalArgumentException(
                "bootstrap URL must be protocol:host:port: " + url);
        }
        return new HdObjRef(parts[0], parts[1],
                            Integer.parseInt(parts[2]), oid, type);
    }

    public String stringify() {
        return "@" + protocol + ":" + host + ":" + port
            + "#" + objectId + "#" + typeId;
    }

    @Override
    public String toString() {
        return stringify();
    }
}
