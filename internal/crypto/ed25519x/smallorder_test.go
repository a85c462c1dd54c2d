package ed25519x

import (
	"crypto/ed25519"
	"crypto/sha512"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"
)

// torsionGenerator is the canonical encoding of a point of order 8;
// its multiples are the eight points of the small-order subgroup.
const torsionGenerator = "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"

// torsionPoints returns [i]T for i = 0..7, where T has order 8.
func torsionPoints(t testing.TB) [8]point {
	t.Helper()
	enc, _ := hex.DecodeString(torsionGenerator)
	var gen point
	if err := gen.setBytes(enc); err != nil {
		t.Fatalf("torsion generator does not decode: %v", err)
	}
	var pts [8]point
	pts[0].setIdentity()
	for i := 1; i < 8; i++ {
		pts[i] = addPoints(&pts[i-1], &gen)
	}
	return pts
}

func addPoints(p, q *point) point {
	var c projCached
	q.toCached(&c)
	var sum projP1xP1
	sum.add(p, &c)
	var out point
	out.fromP1xP1(&sum)
	return out
}

func scalarBaseMult(r *scalar) point {
	terms := make([]multiScalarTerm, 1)
	terms[0].setPrecomputed(r, basepointNafTable())
	return *varTimeMultiScalarMult(terms)
}

// secretScalar returns the scalar a of an Ed25519 private key, reduced
// mod l, so that the public key is [a]B (RFC 8032, section 5.1.5).
func secretScalar(priv ed25519.PrivateKey) *scalar {
	h := sha512.Sum512(priv.Seed())
	h[0] &= 248
	h[31] &= 127
	h[31] |= 64
	var a scalar
	a.setBytesLE(h[:32])
	a.v.Mod(&a.v, order)
	return &a
}

// le32 is the 32-byte little-endian encoding of v < 2^256.
func le32(v *big.Int) []byte {
	var be [32]byte
	v.FillBytes(be[:])
	out := make([]byte, 32)
	for i := range out {
		out[i] = be[31-i]
	}
	return out
}

// signWithR completes a signature whose first half is rEnc and whose
// nonce is r: S = r + k*a mod l with k = SHA512(rEnc || A || msg). When
// rEnc encodes [r]B this is an honest signature; when it encodes
// [r]B + T the result satisfies only the cofactored equation.
func signWithR(priv ed25519.PrivateKey, msg, rEnc []byte, r *scalar) []byte {
	h := sha512.New()
	h.Write(rEnc)
	h.Write(priv.Public().(ed25519.PublicKey))
	h.Write(msg)
	var k, s scalar
	k.setUniform(h.Sum(nil))
	s.mulAdd(&k, secretScalar(priv), r)
	return append(append([]byte(nil), rEnc...), le32(&s.v)...)
}

// signWithTorsion signs msg with R = [r]B + T.
func signWithTorsion(priv ed25519.PrivateKey, msg []byte, r *scalar, torsion *point) []byte {
	rb := scalarBaseMult(r)
	rt := addPoints(&rb, torsion)
	var enc [32]byte
	rt.bytes(&enc)
	return signWithR(priv, msg, enc[:], r)
}

func TestTorsionPointsHaveSmallOrder(t *testing.T) {
	pts := torsionPoints(t)
	for i := range pts {
		var eight point
		if !eight.mulByCofactor(&pts[i]).isIdentity() {
			t.Errorf("[8]([%d]T) is not the identity", i)
		}
	}
	// [4]T is the order-2 point, not the identity: T has order exactly 8.
	if pts[4].isIdentity() {
		t.Error("torsion generator has order dividing 4")
	}
}

// TestSmallOrderSignature builds, over an honest key a, signatures with
// R = [r]B + T for every non-identity T of order dividing 8 and
// S = r + k*a. crypto/ed25519 rejects them ([S]B - [k]A = [r]B != R);
// the cofactored equation accepts them ([8](-T) is the identity).
// Single and batch verification must agree on that, alone and inside a
// batch of valid signatures: a disagreement would let such a signature
// verify on one protocol path and fail on another.
func TestSmallOrderSignature(t *testing.T) {
	pub, priv, _ := ed25519.GenerateKey(deterministicReader(77))
	k, err := ParsePublicKey(pub)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("small-order component")
	var r scalar
	nonce := sha512.Sum512([]byte("small-order nonce"))
	r.setUniform(nonce[:])

	const n = 20
	pubs := make([]*PublicKey, n+1)
	msgs := make([][]byte, n+1)
	sigs := make([][]byte, n+1)
	for i := 0; i < n; i++ {
		p, sk, _ := ed25519.GenerateKey(deterministicReader(int64(300 + i)))
		pubs[i], _ = ParsePublicKey(p)
		msgs[i] = []byte(fmt.Sprintf("valid %d", i))
		sigs[i] = ed25519.Sign(sk, msgs[i])
	}

	pts := torsionPoints(t)
	honest := signWithTorsion(priv, msg, &r, &pts[0])
	if !ed25519.Verify(pub, msg, honest) {
		t.Fatal("construction with T = identity is not an honest signature")
	}
	for i := 1; i < 8; i++ {
		sig := signWithTorsion(priv, msg, &r, &pts[i])
		if ed25519.Verify(pub, msg, sig) {
			t.Fatalf("[%d]T: crypto/ed25519 accepted; the vector does not exercise the cofactor", i)
		}
		if !Verify(k, msg, sig) {
			t.Errorf("[%d]T: Verify rejected", i)
		}
		if !VerifyBatch([]*PublicKey{k}, [][]byte{msg}, [][]byte{sig}) {
			t.Errorf("[%d]T: VerifyBatch of one rejected", i)
		}
		pubs[n], msgs[n], sigs[n] = k, msg, sig
		if !VerifyBatch(pubs, msgs, sigs) {
			t.Errorf("[%d]T: VerifyBatch among %d valid signatures rejected", i, n)
		}

		// The torsion component does not weaken the equation: the same
		// signature over another message is still rejected.
		if Verify(k, append(msg, '!'), sig) {
			t.Errorf("[%d]T: accepted over a different message", i)
		}
	}
}
