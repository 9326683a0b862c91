/* HdStub.java - generic client stub base for the Java mapping.
 *
 * "All stubs inherit from a base HdStub class which provides the
 * generic stub functionality" (paper, Section 3.1) - here: the object
 * reference and the connector the generated methods call through.
 */

public abstract class HdStub {
    protected final HdObjRef pb_ior_;
    protected final HdConnector pb_connector_;

    protected HdStub(HdObjRef ior, HdConnector connector) {
        this.pb_ior_ = ior;
        this.pb_connector_ = connector;
    }

    public HdObjRef ior() {
        return pb_ior_;
    }
}
