package ed25519x

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/sha512"
	"math/big"
	"testing"
)

// Signature mutations FuzzVerifyAgreement applies before verifying.
const (
	mutHonest       = iota // an untouched ed25519.Sign output
	mutBitFlip             // one bit of the signature flipped
	mutHighS               // S replaced by S + l
	mutTorsion             // R = [r]B + T for a small-order T, S re-derived
	mutNonCanonical        // R encoded as y + p, S re-derived
	mutNegativeZero        // R with x = 0 and the sign bit set, S re-derived
	mutWrongMessage        // an honest signature over a different message
	mutCount
)

// encodeY encodes a point by y < 2^255, which it does not reduce mod
// p, and the x sign bit.
func encodeY(y *big.Int, sign bool) []byte {
	out := le32(y)
	if sign {
		out[31] |= 0x80
	}
	return out
}

// FuzzVerifyAgreement checks the two properties the internal/crypto
// suite relies on. First, crypto/ed25519 acceptance implies cofactored
// acceptance, so a suite may return true on the standard library's
// accept without asking this package. Second, Verify agrees with
// VerifyBatch of one, so single, batch and bisection verdicts match.
// Inputs are a fuzz-chosen key seed, message, nonce and one of the
// mutations above (arg selects the bit, torsion point or encoding).
func FuzzVerifyAgreement(f *testing.F) {
	for mode := uint8(0); mode < mutCount; mode++ {
		f.Add([]byte("key"), []byte("message"), mode, uint16(1), []byte("nonce"))
	}
	f.Add([]byte{}, []byte{}, uint8(mutTorsion), uint16(7), []byte{})
	f.Add([]byte("k"), []byte("m"), uint8(mutNonCanonical), uint16(1), []byte("n"))
	f.Fuzz(func(t *testing.T, keySeed, msg []byte, mode uint8, arg uint16, nonce []byte) {
		seed := sha256.Sum256(keySeed)
		priv := ed25519.NewKeyFromSeed(seed[:])
		pub := priv.Public().(ed25519.PublicKey)
		k, err := ParsePublicKey(pub)
		if err != nil {
			t.Fatalf("honest public key %x does not parse: %v", pub, err)
		}
		var r scalar
		h := sha512.Sum512(nonce)
		r.setUniform(h[:])

		var sig []byte
		switch mode % mutCount {
		case mutHonest:
			sig = ed25519.Sign(priv, msg)
		case mutBitFlip:
			sig = ed25519.Sign(priv, msg)
			bit := arg % (8 * ed25519.SignatureSize)
			sig[bit/8] ^= 1 << (bit % 8)
		case mutHighS:
			sig = ed25519.Sign(priv, msg)
			var s scalar
			if !s.setCanonical(sig[32:]) {
				t.Fatal("ed25519.Sign produced S >= l")
			}
			s.v.Add(&s.v, order)
			copy(sig[32:], le32(&s.v))
		case mutTorsion:
			pts := torsionPoints(t)
			sig = signWithTorsion(priv, msg, &r, &pts[arg%8])
		case mutNonCanonical:
			// y = p + j is the non-canonical form of y = j.
			y := new(big.Int).Add(p25519, big.NewInt(int64(arg%19)))
			sig = signWithR(priv, msg, encodeY(y, arg&0x100 != 0), &r)
		case mutNegativeZero:
			// The identity (y = 1) and the order-2 point (y = -1) are
			// the points with x = 0, for which "-0" is not a valid
			// encoding.
			y := big.NewInt(1)
			if arg%2 == 1 {
				y.Sub(p25519, y)
			}
			sig = signWithR(priv, msg, encodeY(y, true), &r)
		case mutWrongMessage:
			sig = ed25519.Sign(priv, append([]byte{byte(arg)}, msg...))
		}

		std := ed25519.Verify(pub, msg, sig)
		got := Verify(k, msg, sig)
		if std && !got {
			t.Fatalf("mode %d: crypto/ed25519 accepts %x but the cofactored check rejects it", mode%mutCount, sig)
		}
		if batch := VerifyBatch([]*PublicKey{k}, [][]byte{msg}, [][]byte{sig}); batch != got {
			t.Fatalf("mode %d: Verify = %v but VerifyBatch of one = %v on %x", mode%mutCount, got, batch, sig)
		}
		switch mode % mutCount {
		case mutHonest:
			if !std || !got {
				t.Fatalf("honest signature rejected: stdlib %v, cofactored %v", std, got)
			}
		case mutHighS, mutNonCanonical, mutNegativeZero:
			if std || got {
				t.Fatalf("mode %d: malformed signature accepted: stdlib %v, cofactored %v", mode%mutCount, std, got)
			}
		case mutTorsion:
			if !got {
				t.Fatalf("torsion [%d]T: cofactored check rejected", arg%8)
			}
			if std != (arg%8 == 0) {
				t.Fatalf("torsion [%d]T: crypto/ed25519 verdict %v", arg%8, std)
			}
		}
	})
}
