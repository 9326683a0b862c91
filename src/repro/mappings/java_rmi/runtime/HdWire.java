/* HdWire.java - token escaping for the HeidiRMI text protocol.
 *
 * Matches repro.heidirmi.textwire: UTF-8 bytes, every byte <= 0x20,
 * >= 0x7F or '%' percent-escaped; the empty string is the token "%e".
 */

import java.io.ByteArrayOutputStream;
import java.nio.charset.StandardCharsets;

public final class HdWire {

    private HdWire() {}

    public static String escape(String text) {
        if (text.isEmpty()) {
            return "%e";
        }
        byte[] bytes = text.getBytes(StandardCharsets.UTF_8);
        StringBuilder out = new StringBuilder(bytes.length);
        for (byte raw : bytes) {
            int b = raw & 0xFF;
            if (b <= 0x20 || b == 0x25 || b >= 0x7F) {
                out.append(String.format("%%%02X", b));
            } else {
                out.append((char) b);
            }
        }
        return out.toString();
    }

    public static String unescape(String token) {
        if (token.equals("%e")) {
            return "";
        }
        ByteArrayOutputStream out = new ByteArrayOutputStream(token.length());
        int index = 0;
        while (index < token.length()) {
            char ch = token.charAt(index);
            if (ch == '%') {
                if (index + 2 >= token.length() + 1) {
                    throw new IllegalArgumentException(
                        "truncated escape in token " + token);
                }
                String code = token.substring(index + 1, index + 3);
                out.write(Integer.parseInt(code, 16));
                index += 3;
            } else {
                out.write((byte) ch);
                index += 1;
            }
        }
        return new String(out.toByteArray(), StandardCharsets.UTF_8);
    }
}
