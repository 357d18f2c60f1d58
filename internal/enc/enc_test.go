package enc

import "testing"

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
}
