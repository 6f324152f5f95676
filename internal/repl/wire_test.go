package repl

import (
	"reflect"
	"testing"
)

// TestWireRoundTrip encodes and decodes every replication message, and
// checks that each decoder rejects every proper prefix of a payload that
// ends in a structured field (raw chunk tails may legally be cut short).
func TestWireRoundTrip(t *testing.T) {
	hello := helloMsg{Version: 1, Token: "tok", Name: "r1", LogID: 7, LSN: 1 << 40}
	if got, err := decodeHello(hello.encode()); err != nil || got != hello {
		t.Fatalf("hello: %+v, %v", got, err)
	}
	for n := 0; n < len(hello.encode()); n++ {
		if _, err := decodeHello(hello.encode()[:n]); err == nil {
			t.Fatalf("hello: %d-byte prefix accepted", n)
		}
	}
	if logID, start, err := decodeSnapBegin(encodeSnapBegin(11, 22)); err != nil || logID != 11 || start != 22 {
		t.Fatalf("snapBegin: %d %d %v", logID, start, err)
	}
	if _, _, err := decodeSnapBegin(encodeSnapBegin(11, 22)[:1]); err == nil {
		t.Fatal("snapBegin: truncated payload accepted")
	}
	file := snapFileMsg{Name: "main.db", Off: 8192, Chunk: []byte{1, 2, 3}}
	if got, err := decodeSnapFile(file.encode()); err != nil || !reflect.DeepEqual(got, file) {
		t.Fatalf("snapFile: %+v, %v", got, err)
	}
	if _, err := decodeSnapFile(file.encode()[:3]); err == nil {
		t.Fatal("snapFile: truncated name accepted")
	}
	ship := shipMsg{StartLSN: 77, Frames: []byte{9, 8, 7}}
	if got, err := decodeShip(ship.encode()); err != nil || !reflect.DeepEqual(got, ship) {
		t.Fatalf("ship: %+v, %v", got, err)
	}
	if _, err := decodeShip(nil); err == nil {
		t.Fatal("ship: empty payload accepted")
	}
}
