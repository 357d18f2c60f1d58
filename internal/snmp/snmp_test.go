package snmp

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

func TestOIDParseString(t *testing.T) {
	o := MustOID("1.3.6.1.2.1.25.3.3.1.2.1")
	if got := o.String(); got != "1.3.6.1.2.1.25.3.3.1.2.1" {
		t.Fatalf("round trip = %q", got)
	}
	if _, err := ParseOID("1"); err == nil {
		t.Fatal("single-arc OID accepted")
	}
	if _, err := ParseOID("1.x.3"); err == nil {
		t.Fatal("garbage OID accepted")
	}
}

func TestOIDCmp(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.3.6", "1.3.6", 0},
		{"1.3.5", "1.3.6", -1},
		{"1.3.7", "1.3.6", 1},
		{"1.3.6", "1.3.6.1", -1},
		{"1.3.6.1", "1.3.6", 1},
	}
	for _, c := range cases {
		if got := MustOID(c.a).Cmp(MustOID(c.b)); got != c.want {
			t.Errorf("Cmp(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	msg := Message{
		Community: "public",
		PDU: PDU{
			Type:      GetRequest,
			RequestID: 1234,
			Varbinds: []Varbind{
				{OID: OIDHrProcessorLoad, Value: Null{}},
				{OID: OIDSysUpTime, Value: Null{}},
			},
		},
	}
	got, err := Decode(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Community != "public" || got.PDU.RequestID != 1234 || got.PDU.Type != GetRequest {
		t.Fatalf("got %+v", got)
	}
	if len(got.PDU.Varbinds) != 2 || !got.PDU.Varbinds[0].OID.Equal(OIDHrProcessorLoad) {
		t.Fatalf("varbinds %+v", got.PDU.Varbinds)
	}
}

func TestValueEncodingRoundTrip(t *testing.T) {
	vals := []Value{
		Integer(0), Integer(42), Integer(-42), Integer(127), Integer(128),
		Integer(-128), Integer(-129), Integer(1 << 30), Integer(-(1 << 30)),
		OctetString(""), OctetString("hello"),
		Gauge32(0), Gauge32(55), Gauge32(1<<31 + 5),
		Counter32(99), TimeTicks(123456),
		Null{}, NoSuchObject{}, EndOfMibView{},
	}
	for _, v := range vals {
		msg := Message{Community: "c", PDU: PDU{Type: GetResponse, RequestID: 1,
			Varbinds: []Varbind{{OID: MustOID("1.3.6.1"), Value: v}}}}
		got, err := Decode(msg.Encode())
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !reflect.DeepEqual(got.PDU.Varbinds[0].Value, v) {
			t.Fatalf("round trip of %#v gave %#v", v, got.PDU.Varbinds[0].Value)
		}
	}
}

func TestPropIntegerRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		msg := Message{Community: "c", PDU: PDU{Type: GetResponse, RequestID: 7,
			Varbinds: []Varbind{{OID: MustOID("1.3"), Value: Integer(v)}}}}
		got, err := Decode(msg.Encode())
		if err != nil {
			return false
		}
		return got.PDU.Varbinds[0].Value == Integer(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropOIDRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 2 + rng.Intn(10)
		o := OID{1, uint32(rng.Intn(40))}
		for len(o) < n {
			o = append(o, uint32(rng.Intn(1<<28)))
		}
		msg := Message{Community: "c", PDU: PDU{Type: GetRequest, RequestID: 1,
			Varbinds: []Varbind{{OID: o, Value: Null{}}}}}
		got, err := Decode(msg.Encode())
		if err != nil {
			return false
		}
		return got.PDU.Varbinds[0].OID.Equal(o)
	}
	for i := 0; i < 500; i++ {
		if !f() {
			t.Fatal("OID round trip failed")
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x30},
		{0x30, 0x05, 0x01, 0x02},
		{0x04, 0x00},
		[]byte("not ber at all"),
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Fatalf("Decode(%x) succeeded", c)
		}
	}
	// Fuzz-ish: truncations of a valid message must error, not panic.
	valid := (&Message{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 9,
		Varbinds: []Varbind{{OID: OIDSysDescr, Value: Null{}}}}}).Encode()
	for i := 0; i < len(valid)-1; i++ {
		_, _ = Decode(valid[:i])
	}
}

func newTestAgent() *Agent {
	mib := NewMIB()
	load := Integer(17)
	mib.Register(OIDHrProcessorLoad, func() Value { return load })
	mib.Register(OIDSysDescr, func() Value { return OctetString("gospaces simulated node") })
	mib.Register(OIDSysUpTime, func() Value { return TimeTicks(4242) })
	mib.Register(MustOID("1.3.6.1.4.1.9999.1.1"), func() Value { return Integer(100) })
	return NewAgent("public", mib)
}

func TestAgentGet(t *testing.T) {
	a := newTestAgent()
	req := Message{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 5,
		Varbinds: []Varbind{{OID: OIDHrProcessorLoad, Value: Null{}}}}}
	resp, err := Decode(a.HandlePacket(req.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.PDU.Type != GetResponse || resp.PDU.RequestID != 5 {
		t.Fatalf("resp %+v", resp.PDU)
	}
	if resp.PDU.Varbinds[0].Value != Integer(17) {
		t.Fatalf("value %v", resp.PDU.Varbinds[0].Value)
	}
}

func TestAgentWrongCommunityDropped(t *testing.T) {
	a := newTestAgent()
	req := Message{Community: "private", PDU: PDU{Type: GetRequest, RequestID: 5,
		Varbinds: []Varbind{{OID: OIDHrProcessorLoad, Value: Null{}}}}}
	if got := a.HandlePacket(req.Encode()); got != nil {
		t.Fatal("wrong community answered")
	}
	if got := a.HandlePacket([]byte{1, 2, 3}); got != nil {
		t.Fatal("garbage answered")
	}
}

func TestAgentGetMissingOID(t *testing.T) {
	a := newTestAgent()
	req := Message{Community: "public", PDU: PDU{Type: GetRequest, RequestID: 1,
		Varbinds: []Varbind{{OID: MustOID("1.2.3.4"), Value: Null{}}}}}
	resp, err := Decode(a.HandlePacket(req.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.PDU.Varbinds[0].Value.(NoSuchObject); !ok {
		t.Fatalf("value %v, want NoSuchObject", resp.PDU.Varbinds[0].Value)
	}
}

func TestManagerOverRPCNetwork(t *testing.T) {
	clk := vclock.NewReal()
	net := transport.NewNetwork(clk, transport.Loopback())
	srv := transport.NewServer()
	newTestAgent().Bind(srv)
	net.Listen("worker1", srv)

	m := NewManager("public", &RPCExchanger{C: net.Dial("worker1")})
	defer m.Close()
	load, err := m.GetInt(OIDHrProcessorLoad)
	if err != nil {
		t.Fatal(err)
	}
	if load != 17 {
		t.Fatalf("load = %d", load)
	}
	vbs, err := m.Get(OIDSysDescr, OIDSysUpTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(vbs) != 2 || vbs[0].Value.String() != "gospaces simulated node" {
		t.Fatalf("vbs %+v", vbs)
	}
	if _, err := m.GetInt(MustOID("1.2.3.4")); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("err = %v", err)
	}
}

func TestManagerWalk(t *testing.T) {
	clk := vclock.NewReal()
	net := transport.NewNetwork(clk, transport.Loopback())
	srv := transport.NewServer()
	newTestAgent().Bind(srv)
	net.Listen("w", srv)
	m := NewManager("public", &RPCExchanger{C: net.Dial("w")})
	defer m.Close()

	var seen []string
	err := m.Walk(MustOID("1.3.6.1.2.1"), func(vb Varbind) error {
		seen = append(seen, vb.OID.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// sysDescr, sysUpTime, hrProcessorLoad live under 1.3.6.1.2.1; the
	// enterprise OID (1.3.6.1.4...) must not appear.
	if len(seen) != 3 {
		t.Fatalf("walked %v", seen)
	}
	for i := 1; i < len(seen); i++ {
		if MustOID(seen[i-1]).Cmp(MustOID(seen[i])) >= 0 {
			t.Fatalf("walk out of order: %v", seen)
		}
	}
}

// TestAgentDropsSetRequest pins the agent as read-only: a SetRequest is
// a PDU it does not serve, dropped like any other, and the value stays.
func TestAgentDropsSetRequest(t *testing.T) {
	a := newTestAgent()
	oid := MustOID("1.3.6.1.4.1.9999.1.1")
	req := Message{Community: "public", PDU: PDU{Type: SetRequest, RequestID: 3,
		Varbinds: []Varbind{{OID: oid, Value: Integer(55)}}}}
	if resp := a.HandlePacket(req.Encode()); resp != nil {
		t.Fatalf("SetRequest answered: % x", resp)
	}
	if v := a.MIB.getValue(oid); v != Integer(100) {
		t.Fatalf("after a SetRequest the value is %v, want 100", v)
	}
}

func TestManagerOverUDP(t *testing.T) {
	ua, err := ListenUDP("127.0.0.1:0", newTestAgent())
	if err != nil {
		t.Fatal(err)
	}
	defer ua.Close()
	m := NewManager("public", &UDPExchanger{Addr: ua.Addr()})
	defer m.Close()
	load, err := m.GetInt(OIDHrProcessorLoad)
	if err != nil {
		t.Fatal(err)
	}
	if load != 17 {
		t.Fatalf("load = %d", load)
	}
}

func TestTrapRoundTrip(t *testing.T) {
	var got []byte
	sender := NewTrapSender("public", TrapSinkFunc(func(p []byte) error {
		got = p
		return nil
	}))
	err := sender.Send(TimeTicks(1234), OIDLoadBandTrap,
		Varbind{OID: OIDBackgroundLoad, Value: Integer(77)})
	if err != nil {
		t.Fatal(err)
	}
	trapOID, payload, err := ParseTrap(got)
	if err != nil {
		t.Fatal(err)
	}
	if !trapOID.Equal(OIDLoadBandTrap) {
		t.Fatalf("trap OID %s", trapOID)
	}
	if len(payload) != 1 || payload[0].Value != Integer(77) {
		t.Fatalf("payload %+v", payload)
	}
}

func TestParseTrapRejectsNonTraps(t *testing.T) {
	msg := Message{Community: "c", PDU: PDU{Type: GetRequest, RequestID: 1,
		Varbinds: []Varbind{{OID: OIDSysDescr, Value: Null{}}}}}
	if _, _, err := ParseTrap(msg.Encode()); err == nil {
		t.Fatal("GetRequest accepted as trap")
	}
	if _, _, err := ParseTrap([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted as trap")
	}
	// Trap missing the snmpTrapOID varbind.
	bad := Message{Community: "c", PDU: PDU{Type: TrapV2, RequestID: 1,
		Varbinds: []Varbind{{OID: OIDSysUpTime, Value: TimeTicks(1)}, {OID: OIDSysDescr, Value: Null{}}}}}
	if _, _, err := ParseTrap(bad.Encode()); err == nil {
		t.Fatal("malformed trap accepted")
	}
}

func TestAgentGetNextSequence(t *testing.T) {
	a := newTestAgent()
	// Walk the entire MIB with raw GetNext packets.
	cur := OID{1, 0}
	var count int
	for {
		req := Message{Community: "public", PDU: PDU{Type: GetNextRequest, RequestID: int32(count + 1),
			Varbinds: []Varbind{{OID: cur, Value: Null{}}}}}
		resp, err := Decode(a.HandlePacket(req.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		vb := resp.PDU.Varbinds[0]
		if _, end := vb.Value.(EndOfMibView); end {
			break
		}
		count++
		if count > 100 {
			t.Fatal("GetNext walk did not terminate")
		}
		cur = vb.OID
	}
	if count != 4 {
		t.Fatalf("walked %d vars, want 4", count)
	}
}
