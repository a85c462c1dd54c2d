package crypto

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
	"time"
)

func suites(t *testing.T) map[string]Suite {
	t.Helper()
	return map[string]Suite{
		"ed25519": NewEd25519Suite(8, 42),
		"sim":     NewSimSuite(42),
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("hello xft")
			sig := s.Sign(3, msg)
			if !s.Verify(3, msg, sig) {
				t.Fatalf("valid signature rejected")
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("payload")
			sig := s.Sign(1, msg)
			if s.Verify(2, msg, sig) {
				t.Fatalf("signature by node 1 verified against node 2")
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("payload")
			sig := s.Sign(1, msg)
			msg[0] ^= 0xff
			if s.Verify(1, msg, sig) {
				t.Fatalf("tampered message verified")
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("payload")
			sig := s.Sign(1, msg)
			sig[0] ^= 0xff
			if s.Verify(1, msg, sig) {
				t.Fatalf("tampered signature verified")
			}
		})
	}
}

func TestVerifyRejectsWrongLengthSignature(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			if s.Verify(1, []byte("x"), Signature("short")) {
				t.Fatalf("short signature verified")
			}
			if s.Verify(1, []byte("x"), nil) {
				t.Fatalf("nil signature verified")
			}
		})
	}
}

func TestMACRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("channel data")
			mac := s.MAC(0, 5, msg)
			if !s.VerifyMAC(0, 5, msg, mac) {
				t.Fatalf("valid MAC rejected")
			}
			// MAC keys are symmetric per pair: receiver verifies with
			// the same pairwise key.
			if !s.VerifyMAC(5, 0, msg, mac) {
				t.Fatalf("pairwise MAC rejected in reverse direction")
			}
		})
	}
}

func TestMACRejectsWrongChannel(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("channel data")
			mac := s.MAC(0, 5, msg)
			if s.VerifyMAC(0, 6, msg, mac) {
				t.Fatalf("MAC for 0->5 verified on 0->6")
			}
		})
	}
}

func TestMACRejectsTamperedData(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("channel data")
			mac := s.MAC(0, 5, msg)
			msg[0] ^= 1
			if s.VerifyMAC(0, 5, msg, mac) {
				t.Fatalf("tampered data verified")
			}
		})
	}
}

// TestEd25519MACGolden pins Ed25519Suite's MAC bytes: pairwise keys are
// derived from the seed on demand, and deployments built from the same
// seed must keep agreeing on them.
func TestEd25519MACGolden(t *testing.T) {
	s := NewEd25519Suite(1030, 42)
	for _, c := range []struct {
		from, to NodeID
		data     string
		want     string
	}{
		{2, 5, "golden mac", "d937557586b5c0128fb460408cddf1f23c8c7a1fe777d70f7b88126855522f7b"},
		{5, 2, "golden mac", "d937557586b5c0128fb460408cddf1f23c8c7a1fe777d70f7b88126855522f7b"},
		{1029, 0, "client reply", "23e52b27fb4d42d4ec3c0ad714247d0a049b1d464bb037ca0e1087c9608c1068"},
		{7, 7, "", "5fd3d41ee008fcb1798ddeaf1ea906a1d0e692107d4ba7648d6d2d7d9ae5a408"},
	} {
		mac := s.MAC(c.from, c.to, []byte(c.data))
		if got := hex.EncodeToString(mac); got != c.want {
			t.Errorf("MAC(%d, %d, %q) = %s, want %s", c.from, c.to, c.data, got, c.want)
		}
		if !s.VerifyMAC(c.to, c.from, []byte(c.data), mac) {
			t.Errorf("VerifyMAC(%d, %d, %q) rejected the golden MAC", c.to, c.from, c.data)
		}
	}
}

// TestEd25519MACOutsideSuite: ids outside [0, n) have no MAC key, so
// MAC panics and VerifyMAC rejects.
func TestEd25519MACOutsideSuite(t *testing.T) {
	s := NewEd25519Suite(4, 1)
	for _, ch := range [][2]NodeID{{0, 4}, {4, 0}, {-1, 2}, {2, -1}, {100, 100}} {
		if s.VerifyMAC(ch[0], ch[1], []byte("x"), make(MAC, 32)) {
			t.Errorf("VerifyMAC accepted channel %d->%d", ch[0], ch[1])
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MAC on channel %d->%d did not panic", ch[0], ch[1])
				}
			}()
			s.MAC(ch[0], ch[1], []byte("x"))
		}()
	}
}

func TestDeterministicKeyGeneration(t *testing.T) {
	a := NewEd25519Suite(4, 7)
	b := NewEd25519Suite(4, 7)
	msg := []byte("det")
	if !bytes.Equal(a.Sign(2, msg), b.Sign(2, msg)) {
		t.Fatalf("same seed produced different ed25519 keys")
	}
	c := NewEd25519Suite(4, 8)
	if bytes.Equal(a.Sign(2, msg), c.Sign(2, msg)) {
		t.Fatalf("different seeds produced identical signatures")
	}
}

func TestSimSuiteDeterminism(t *testing.T) {
	a := NewSimSuite(7)
	b := NewSimSuite(7)
	if !bytes.Equal(a.Sign(1, []byte("m")), b.Sign(1, []byte("m"))) {
		t.Fatalf("sim suite not deterministic across instances")
	}
}

func TestHashPartsMatchesConcatenation(t *testing.T) {
	check := func(a, b, c []byte) bool {
		joined := append(append(append([]byte{}, a...), b...), c...)
		return HashParts(a, b, c) == Hash(joined)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignaturePropertyRandomMessages(t *testing.T) {
	s := NewSimSuite(99)
	check := func(id uint8, msg []byte) bool {
		node := NodeID(id % 16)
		sig := s.Sign(node, msg)
		return s.Verify(node, msg, sig) && !s.Verify(node+1, msg, sig)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterCounts(t *testing.T) {
	m := NewMeter(NewSimSuite(1))
	msg := make([]byte, 100)
	sig := m.Sign(0, msg)
	m.Verify(0, msg, sig)
	m.Verify(0, msg, sig)
	mac := m.MAC(0, 1, msg)
	m.VerifyMAC(0, 1, msg, mac)
	m.Digest(msg)

	got := m.Total()
	want := Counts{Signs: 1, Verifies: 2, MACs: 1, MACVerifies: 1, Digests: 1, Bytes: 600}
	if got != want {
		t.Fatalf("meter counts = %+v, want %+v", got, want)
	}
}

func TestMeterWindowResets(t *testing.T) {
	m := NewMeter(NewSimSuite(1))
	m.Sign(0, []byte("a"))
	w1 := m.TakeWindow()
	if w1.Signs != 1 {
		t.Fatalf("first window signs = %d, want 1", w1.Signs)
	}
	w2 := m.TakeWindow()
	if w2 != (Counts{}) {
		t.Fatalf("second window not empty: %+v", w2)
	}
	if m.Total().Signs != 1 {
		t.Fatalf("total lost after window take")
	}
}

func TestCostModelCharges(t *testing.T) {
	cm := CostModel{
		SignCost:    100 * time.Microsecond,
		VerifyCost:  10 * time.Microsecond,
		MACCost:     time.Microsecond,
		DigestCost:  time.Microsecond,
		PerByteCost: time.Nanosecond,
	}
	c := Counts{Signs: 2, Verifies: 3, MACs: 1, MACVerifies: 1, Digests: 4, Bytes: 1000}
	got := c.Cost(cm)
	want := 200*time.Microsecond + 30*time.Microsecond + 2*time.Microsecond + 4*time.Microsecond + 1000*time.Nanosecond
	if got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

func TestDefaultCostModelSignDominates(t *testing.T) {
	cm := DefaultCostModel()
	if cm.SignCost <= cm.VerifyCost || cm.VerifyCost <= cm.MACCost {
		t.Fatalf("expected Sign > Verify > MAC cost ordering, got %+v", cm)
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{Signs: 1, Bytes: 10}
	a.Add(Counts{Signs: 2, Verifies: 5, Bytes: 1})
	if a.Signs != 3 || a.Verifies != 5 || a.Bytes != 11 {
		t.Fatalf("add mismatch: %+v", a)
	}
}

func TestWireSizes(t *testing.T) {
	sim := NewSimSuite(1)
	if sim.SignatureSize() != 128 || sim.MACSize() != 20 {
		t.Fatalf("sim suite should model RSA-1024/HMAC-SHA1 wire sizes, got %d/%d", sim.SignatureSize(), sim.MACSize())
	}
	ed := NewEd25519Suite(2, 1)
	if ed.SignatureSize() != 64 || ed.MACSize() != 32 {
		t.Fatalf("ed25519 sizes: got %d/%d", ed.SignatureSize(), ed.MACSize())
	}
}

func BenchmarkSimSign(b *testing.B) {
	s := NewSimSuite(1)
	msg := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sign(0, msg)
	}
}

func BenchmarkEd25519Sign(b *testing.B) {
	s := NewEd25519Suite(1, 1)
	msg := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sign(0, msg)
	}
}
