package enc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
)

type registeredT struct{ A int }
type unregisteredT struct{ B int }

func TestRegisterTypeTracksRegistration(t *testing.T) {
	RegisterType(registeredT{}) // (idempotent: the test may run with -count)
	if !IsRegistered(registeredT{}) {
		t.Fatal("RegisterType not tracked")
	}
	if IsRegistered(unregisteredT{}) {
		t.Fatal("unrelated type reported registered")
	}
	// Gob really accepts the type inside an any-typed frame.
	var buf bytes.Buffer
	var v interface{} = registeredT{A: 7}
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("encode registered type: %v", err)
	}
}

func TestWrapEncodeErrorNamesType(t *testing.T) {
	var buf bytes.Buffer
	var v interface{} = unregisteredT{B: 1}
	err := gob.NewEncoder(&buf).Encode(&v)
	if err == nil {
		t.Fatal("gob accepted an unregistered type inside interface")
	}
	wrapped := WrapEncodeError(err, v)
	var ute *UnregisteredTypeError
	if !errors.As(wrapped, &ute) {
		t.Fatalf("wrapped error = %v (%T), want *UnregisteredTypeError", wrapped, wrapped)
	}
	if ute.Type != "enc.unregisteredT" {
		t.Fatalf("error names %q, want enc.unregisteredT", ute.Type)
	}
	if !strings.Contains(ute.Error(), "RegisterType(enc.unregisteredT{})") {
		t.Fatalf("error message not actionable: %q", ute.Error())
	}
}

func TestWrapEncodeErrorPassThrough(t *testing.T) {
	if WrapEncodeError(nil, 1) != nil {
		t.Fatal("nil error wrapped")
	}
	sentinel := errors.New("disk on fire")
	if got := WrapEncodeError(sentinel, 1); got != sentinel {
		t.Fatalf("unrelated error rewritten: %v", got)
	}
}
