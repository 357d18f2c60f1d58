package snmp

import (
	"fmt"
	"net"
	"sync"

	"gospaces/internal/transport"
)

// MIB is an agent's management information base: a set of read-only OIDs
// bound to getter functions.
type MIB struct {
	mu   sync.Mutex
	vars map[string]*mibVar // key: OID string
	oids []OID              // sorted, for GetNext
}

type mibVar struct {
	oid OID
	get func() Value
}

// NewMIB returns an empty MIB.
func NewMIB() *MIB { return &MIB{vars: make(map[string]*mibVar)} }

// Register binds oid to getter get. Re-registering an OID replaces it.
func (m *MIB) Register(oid OID, get func() Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := oid.String()
	if _, exists := m.vars[key]; !exists {
		m.oids = append(m.oids, oid)
		sortOIDs(m.oids)
	}
	m.vars[key] = &mibVar{oid: oid, get: get}
}

// get returns the value at exactly oid, or NoSuchObject.
func (m *MIB) getValue(oid OID) Value {
	m.mu.Lock()
	v, ok := m.vars[oid.String()]
	m.mu.Unlock()
	if !ok {
		return NoSuchObject{}
	}
	return v.get()
}

// next returns the first OID strictly after oid and its value, or
// EndOfMibView.
func (m *MIB) next(oid OID) (OID, Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, o := range m.oids {
		if o.Cmp(oid) > 0 {
			return o, m.vars[o.String()].get()
		}
	}
	return oid, EndOfMibView{}
}

// Agent answers SNMP requests against a MIB. The worker module runs one
// per node (the paper's "worker-agent component").
type Agent struct {
	Community string
	MIB       *MIB
}

// NewAgent returns an agent with community string community.
func NewAgent(community string, mib *MIB) *Agent {
	return &Agent{Community: community, MIB: mib}
}

// HandlePacket processes one BER-encoded request datagram and returns the
// BER-encoded response: nil for an undecodable or unauthorized request, or
// one the agent does not serve (it answers GetRequest and GetNextRequest
// only), which real agents silently drop.
func (a *Agent) HandlePacket(req []byte) []byte {
	msg, err := Decode(req)
	if err != nil {
		return nil
	}
	if msg.Community != a.Community {
		return nil // wrong community: drop, per protocol
	}
	resp := Message{Community: a.Community, PDU: PDU{
		Type:      GetResponse,
		RequestID: msg.PDU.RequestID,
	}}
	for _, vb := range msg.PDU.Varbinds {
		switch msg.PDU.Type {
		case GetRequest:
			resp.PDU.Varbinds = append(resp.PDU.Varbinds, Varbind{OID: vb.OID, Value: a.MIB.getValue(vb.OID)})
		case GetNextRequest:
			oid, val := a.MIB.next(vb.OID)
			resp.PDU.Varbinds = append(resp.PDU.Varbinds, Varbind{OID: oid, Value: val})
		default:
			return nil
		}
	}
	return resp.Encode()
}

// Bind registers the agent on an in-process RPC server under the
// "snmp.Exchange" method, so managers on the simulated network can poll it.
// The exchanged payloads are the same BER bytes UDP would carry.
func (a *Agent) Bind(srv *transport.Server) {
	srv.Handle("snmp.Exchange", func(arg interface{}) (interface{}, error) {
		req, ok := arg.([]byte)
		if !ok {
			return nil, fmt.Errorf("snmp: bad exchange payload %T", arg)
		}
		resp := a.HandlePacket(req)
		if resp == nil {
			return nil, fmt.Errorf("snmp: request dropped")
		}
		return resp, nil
	})
}

// UDPAgent serves an Agent over a UDP socket.
type UDPAgent struct {
	agent *Agent
	conn  *net.UDPConn
	wg    sync.WaitGroup
}

// ListenUDP binds the agent to addr (e.g. "127.0.0.1:0") and starts
// serving. Use Addr to discover the bound address.
func ListenUDP(addr string, agent *Agent) (*UDPAgent, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("snmp: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("snmp: listen %s: %w", addr, err)
	}
	u := &UDPAgent{agent: agent, conn: conn}
	u.wg.Add(1)
	go u.serve()
	return u, nil
}

// Addr returns the bound UDP address.
func (u *UDPAgent) Addr() string { return u.conn.LocalAddr().String() }

// Close stops the agent.
func (u *UDPAgent) Close() error {
	err := u.conn.Close()
	u.wg.Wait()
	return err
}

func (u *UDPAgent) serve() {
	defer u.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, peer, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		resp := u.agent.HandlePacket(buf[:n])
		if resp != nil {
			_, _ = u.conn.WriteToUDP(resp, peer)
		}
	}
}
