package snmp

import (
	"fmt"
)

// PDUType identifies the SNMP operation.
type PDUType byte

// PDU types.
const (
	GetRequest     PDUType = tagGetRequest
	GetNextRequest PDUType = tagGetNextRequest
	GetResponse    PDUType = tagGetResponse
	SetRequest     PDUType = tagSetRequest
	TrapV2         PDUType = tagTrapV2
)

// String names the PDU type.
func (t PDUType) String() string {
	switch t {
	case GetRequest:
		return "GetRequest"
	case GetNextRequest:
		return "GetNextRequest"
	case GetResponse:
		return "GetResponse"
	case SetRequest:
		return "SetRequest"
	case TrapV2:
		return "TrapV2"
	}
	return fmt.Sprintf("PDUType(0x%02x)", byte(t))
}

// SNMP error-status codes (subset).
const (
	ErrStatusNoError = 0
	ErrStatusTooBig  = 1
)

// Varbind pairs an OID with a value.
type Varbind struct {
	OID   OID
	Value Value
}

// PDU is the protocol data unit inside a message.
type PDU struct {
	Type        PDUType
	RequestID   int32
	ErrorStatus int32
	ErrorIndex  int32
	Varbinds    []Varbind
}

// Message is a complete SNMP v2c message.
type Message struct {
	Community string
	PDU       PDU
}

// versionV2c is the on-wire version number for SNMPv2c.
const versionV2c = 1

// Encode serializes the message to BER bytes.
func (m *Message) Encode() []byte {
	var vbs []byte
	for _, vb := range m.PDU.Varbinds {
		var one []byte
		one = encodeOID(one, vb.OID)
		v := vb.Value
		if v == nil {
			v = Null{}
		}
		one = v.encode(one)
		vbs = appendTLV(vbs, tagSequence, one)
	}
	var pdu []byte
	pdu = appendInt(pdu, tagInteger, int64(m.PDU.RequestID))
	pdu = appendInt(pdu, tagInteger, int64(m.PDU.ErrorStatus))
	pdu = appendInt(pdu, tagInteger, int64(m.PDU.ErrorIndex))
	pdu = appendTLV(pdu, tagSequence, vbs)

	var body []byte
	body = appendInt(body, tagInteger, versionV2c)
	body = appendTLV(body, tagOctetString, []byte(m.Community))
	body = appendTLV(body, byte(m.PDU.Type), pdu)

	return appendTLV(nil, tagSequence, body)
}

// Decode parses a BER-encoded SNMP v2c message.
func Decode(b []byte) (*Message, error) {
	r := &reader{b: b}
	tag, body, err := r.tlv()
	if err != nil {
		return nil, err
	}
	if err := expectTag(tag, tagSequence); err != nil {
		return nil, err
	}
	br := &reader{b: body}

	tag, vb, err := br.tlv()
	if err != nil {
		return nil, err
	}
	if err := expectTag(tag, tagInteger); err != nil {
		return nil, err
	}
	ver, err := decodeInt(vb)
	if err != nil {
		return nil, err
	}
	if ver != versionV2c {
		return nil, fmt.Errorf("%w: version %d, want v2c(%d)", ErrDecode, ver, versionV2c)
	}

	tag, comm, err := br.tlv()
	if err != nil {
		return nil, err
	}
	if err := expectTag(tag, tagOctetString); err != nil {
		return nil, err
	}

	pduTag, pduBody, err := br.tlv()
	if err != nil {
		return nil, err
	}
	switch PDUType(pduTag) {
	case GetRequest, GetNextRequest, GetResponse, SetRequest, TrapV2:
	default:
		return nil, fmt.Errorf("%w: PDU tag 0x%02x", ErrDecode, pduTag)
	}

	pr := &reader{b: pduBody}
	reqID, err := readIntField(pr)
	if err != nil {
		return nil, err
	}
	errStatus, err := readIntField(pr)
	if err != nil {
		return nil, err
	}
	errIndex, err := readIntField(pr)
	if err != nil {
		return nil, err
	}
	tag, vbsBody, err := pr.tlv()
	if err != nil {
		return nil, err
	}
	if err := expectTag(tag, tagSequence); err != nil {
		return nil, err
	}

	var varbinds []Varbind
	vr := &reader{b: vbsBody}
	for vr.len() > 0 {
		tag, one, err := vr.tlv()
		if err != nil {
			return nil, err
		}
		if err := expectTag(tag, tagSequence); err != nil {
			return nil, err
		}
		or := &reader{b: one}
		otag, ob, err := or.tlv()
		if err != nil {
			return nil, err
		}
		if err := expectTag(otag, tagOID); err != nil {
			return nil, err
		}
		oid, err := decodeOID(ob)
		if err != nil {
			return nil, err
		}
		vtag, vbody, err := or.tlv()
		if err != nil {
			return nil, err
		}
		val, err := decodeValue(vtag, vbody)
		if err != nil {
			return nil, err
		}
		varbinds = append(varbinds, Varbind{OID: oid, Value: val})
	}

	return &Message{
		Community: string(comm),
		PDU: PDU{
			Type:        PDUType(pduTag),
			RequestID:   int32(reqID),
			ErrorStatus: int32(errStatus),
			ErrorIndex:  int32(errIndex),
			Varbinds:    varbinds,
		},
	}, nil
}

func readIntField(r *reader) (int64, error) {
	tag, body, err := r.tlv()
	if err != nil {
		return 0, err
	}
	if err := expectTag(tag, tagInteger); err != nil {
		return 0, err
	}
	return decodeInt(body)
}
