package snmp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/transport"
)

// Errors returned by the manager.
var (
	ErrTimeout      = errors.New("snmp: request timed out")
	ErrNoSuchObject = errors.New("snmp: no such object")
	ErrAgent        = errors.New("snmp: agent returned error status")
)

// Exchanger moves one BER request datagram to an agent and returns its
// response — the transport abstraction under the manager.
type Exchanger interface {
	Exchange(req []byte) ([]byte, error)
	Close() error
}

// RPCExchanger carries SNMP packets over the in-process RPC network.
type RPCExchanger struct {
	C transport.Client
}

// Exchange implements Exchanger.
func (e *RPCExchanger) Exchange(req []byte) ([]byte, error) {
	res, err := e.C.Call("snmp.Exchange", req)
	if err != nil {
		return nil, err
	}
	b, ok := res.([]byte)
	if !ok {
		return nil, fmt.Errorf("snmp: bad exchange reply %T", res)
	}
	return b, nil
}

// Close implements Exchanger.
func (e *RPCExchanger) Close() error { return e.C.Close() }

// UDPExchanger carries SNMP packets over real UDP with retry.
type UDPExchanger struct {
	Addr string

	mu   sync.Mutex
	conn *net.UDPConn
}

// A UDP request waits udpTimeout for its answer and is sent at most
// udpAttempts times.
const (
	udpTimeout  = time.Second
	udpAttempts = 3
)

// Exchange implements Exchanger.
func (e *UDPExchanger) Exchange(req []byte) ([]byte, error) {
	e.mu.Lock()
	if e.conn == nil {
		ua, err := net.ResolveUDPAddr("udp", e.Addr)
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		conn, err := net.DialUDP("udp", nil, ua)
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		e.conn = conn
	}
	conn := e.conn
	e.mu.Unlock()

	buf := make([]byte, 64*1024)
	for i := 0; i < udpAttempts; i++ {
		if _, err := conn.Write(req); err != nil {
			return nil, err
		}
		_ = conn.SetReadDeadline(time.Now().Add(udpTimeout))
		n, err := conn.Read(buf)
		if err == nil {
			out := make([]byte, n)
			copy(out, buf[:n])
			return out, nil
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			return nil, err
		}
	}
	return nil, ErrTimeout
}

// Close implements Exchanger.
func (e *UDPExchanger) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conn != nil {
		err := e.conn.Close()
		e.conn = nil
		return err
	}
	return nil
}

// Manager issues SNMP requests to one agent. It is the SNMP-server side of
// the paper's monitoring agent: the network-management module holds one
// Manager per registered worker and polls hrProcessorLoad through it.
type Manager struct {
	Community string
	ex        Exchanger
	reqID     int32
}

// NewManager returns a manager speaking to the agent behind ex.
func NewManager(community string, ex Exchanger) *Manager {
	return &Manager{Community: community, ex: ex}
}

// Close releases the underlying transport.
func (m *Manager) Close() error { return m.ex.Close() }

func (m *Manager) roundTrip(pduType PDUType, vbs []Varbind) (*Message, error) {
	req := Message{Community: m.Community, PDU: PDU{
		Type:      pduType,
		RequestID: atomic.AddInt32(&m.reqID, 1),
		Varbinds:  vbs,
	}}
	respBytes, err := m.ex.Exchange(req.Encode())
	if err != nil {
		return nil, err
	}
	resp, err := Decode(respBytes)
	if err != nil {
		return nil, err
	}
	if resp.PDU.RequestID != req.PDU.RequestID {
		return nil, fmt.Errorf("%w: response id %d for request %d", ErrDecode, resp.PDU.RequestID, req.PDU.RequestID)
	}
	if resp.PDU.ErrorStatus != ErrStatusNoError {
		return resp, fmt.Errorf("%w: status %d index %d", ErrAgent, resp.PDU.ErrorStatus, resp.PDU.ErrorIndex)
	}
	return resp, nil
}

// Get fetches the values at the given OIDs.
func (m *Manager) Get(oids ...OID) ([]Varbind, error) {
	vbs := make([]Varbind, len(oids))
	for i, o := range oids {
		vbs[i] = Varbind{OID: o, Value: Null{}}
	}
	resp, err := m.roundTrip(GetRequest, vbs)
	if err != nil {
		return nil, err
	}
	return resp.PDU.Varbinds, nil
}

// GetInt fetches a single OID and returns its value as an int64 (INTEGER,
// Gauge32, Counter32 or TimeTicks).
func (m *Manager) GetInt(oid OID) (int64, error) {
	vbs, err := m.Get(oid)
	if err != nil {
		return 0, err
	}
	if len(vbs) != 1 {
		return 0, fmt.Errorf("%w: %d varbinds", ErrDecode, len(vbs))
	}
	switch v := vbs[0].Value.(type) {
	case Integer:
		return int64(v), nil
	case Gauge32:
		return int64(v), nil
	case Counter32:
		return int64(v), nil
	case TimeTicks:
		return int64(v), nil
	case NoSuchObject:
		return 0, fmt.Errorf("%w: %s", ErrNoSuchObject, oid)
	default:
		return 0, fmt.Errorf("snmp: %s has non-numeric value %s", oid, v)
	}
}

// GetNext returns the lexically following varbind after oid.
func (m *Manager) GetNext(oid OID) (Varbind, error) {
	resp, err := m.roundTrip(GetNextRequest, []Varbind{{OID: oid, Value: Null{}}})
	if err != nil {
		return Varbind{}, err
	}
	if len(resp.PDU.Varbinds) != 1 {
		return Varbind{}, fmt.Errorf("%w: %d varbinds", ErrDecode, len(resp.PDU.Varbinds))
	}
	return resp.PDU.Varbinds[0], nil
}

// Walk visits every OID under root in lexical order.
func (m *Manager) Walk(root OID, visit func(Varbind) error) error {
	cur := root
	for {
		vb, err := m.GetNext(cur)
		if err != nil {
			return err
		}
		if _, end := vb.Value.(EndOfMibView); end {
			return nil
		}
		if len(vb.OID) < len(root) || vb.OID[:len(root)].Cmp(root) != 0 {
			return nil // walked out of the subtree
		}
		if err := visit(vb); err != nil {
			return err
		}
		cur = vb.OID
	}
}
