/* HdRemoteException.java - any remote failure surfaced to Java code.
 *
 * Declared IDL exceptions and system-level errors both arrive as
 * HdRemoteException; repoId carries the exception repository ID or the
 * error category.
 */

public class HdRemoteException extends Exception {
    public final String repoId;

    public HdRemoteException(String repoId, String message) {
        super(repoId + ": " + message);
        this.repoId = repoId;
    }
}
