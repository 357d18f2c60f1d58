package faults

import "io"

// Disk fault injection: the durable space service exposes its WAL writes
// through an io.Writer hook (wal.Options.WrapWriter); wrapping that hook
// with Plan.WrapWriter routes every segment write through the same
// deterministic rule engine as network calls. The durability tests
// use it to prove a failed disk write surfaces as a loud space error
// instead of an acknowledged-but-lost record.

// MethodDiskWrite is the method name disk writes are intercepted under.
const MethodDiskWrite = "disk.Write"

// DiskEndpoint returns the fault-plan endpoint name for the disk behind
// the named service. Kept distinct from the service's own network
// endpoint so scripted network outages (CrashEndpoint) do not silently
// fail the recovery I/O of the restarting process.
func DiskEndpoint(service string) string { return "disk:" + service }

// DropNthCall fails exactly the nth matching call of the stream with an
// injected drop error (the underlying operation never runs). With
// method MethodDiskWrite and a DiskEndpoint target this scripts "the nth
// WAL write returns an I/O error" deterministically.
func (p *Plan) DropNthCall(from, to, method string, nth int) {
	p.addRule(&rule{from: from, to: to, method: method, act: actDrop, nth: uint64(nth)})
}

// WrapWriter wraps w so every Write routes through the plan, addressed to
// endpoint (conventionally DiskEndpoint(service)). A firing drop rule
// makes the Write return the injected error without touching w — a torn
// or failed disk write as seen by the WAL.
func (p *Plan) WrapWriter(endpoint string, w io.Writer) io.Writer {
	return &faultWriter{p: p, endpoint: endpoint, w: w}
}

type faultWriter struct {
	p        *Plan
	endpoint string
	w        io.Writer
}

// Write implements io.Writer.
func (fw *faultWriter) Write(b []byte) (int, error) {
	res, err := fw.p.intercept("", fw.endpoint, MethodDiskWrite, func() (interface{}, error) {
		return fw.w.Write(b)
	})
	if err != nil {
		return 0, err
	}
	return res.(int), nil
}
