// Package crypto provides the cryptographic substrate used by all
// replication protocols in this repository: digital signatures, message
// authentication codes (MACs) and digests, behind a pluggable Suite
// interface.
//
// Two suites are provided:
//
//   - Ed25519Suite: real public-key cryptography from the Go standard
//     library (crypto/ed25519, crypto/hmac, crypto/sha256). Used by the
//     live runtime, the TCP deployment and correctness tests that must
//     exercise genuine signature verification failures.
//
//   - SimSuite: a fast, deterministic suite for large discrete-event
//     simulations. Signatures are keyed SHA-256 digests over a per-node
//     secret; they verify only against the signer's identity, so honest
//     protocol code behaves identically, while fault-injection code can
//     still fabricate *invalid* signatures. SimSuite is orders of
//     magnitude faster than Ed25519 and keeps multi-million-message
//     experiments cheap.
//
// Every suite is wrapped in a Meter that counts operations and charges
// a CostModel, so the network simulator can account for CPU time spent
// on cryptography (Section 5.3 / Figure 8 of the XFT paper). The
// default cost model uses RSA-1024 + HMAC-SHA1 era constants to match
// the paper's experimental setup.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/xft-consensus/xft/internal/crypto/ed25519x"
)

// NodeID identifies a machine (replica or client) in the key universe.
// It mirrors smr.NodeID; defined here too so the package stands alone.
type NodeID int

// DigestSize is the size of message digests in bytes (SHA-256).
const DigestSize = 32

// Digest is a fixed-size message digest.
type Digest [DigestSize]byte

// String renders the first 8 bytes of the digest in hex.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// Signature is a digital signature produced by a Suite.
type Signature []byte

// MAC is a message authentication code produced by a Suite.
type MAC []byte

// Hash returns the SHA-256 digest of data. All suites share this
// digest function, so digests computed by different suites agree.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// HashParts digests the concatenation of several byte slices without
// allocating an intermediate buffer.
func HashParts(parts ...[]byte) Digest {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// Suite is the cryptographic interface protocols program against.
//
// Sign/Verify model per-node public-key signatures (the paper's
// RSA-1024); MAC/VerifyMAC model pairwise symmetric authenticators
// (the paper's HMAC-SHA1). A Suite instance holds keys for the whole
// deployment; node identity is passed explicitly so a single Suite can
// serve a simulated cluster.
type Suite interface {
	// Sign signs data with the private key of node id.
	Sign(id NodeID, data []byte) Signature
	// Verify reports whether sig is a valid signature over data by
	// node id.
	Verify(id NodeID, data []byte, sig Signature) bool
	// MAC authenticates data on the channel from -> to.
	MAC(from, to NodeID, data []byte) MAC
	// VerifyMAC reports whether mac authenticates data on from -> to.
	VerifyMAC(from, to NodeID, data []byte, mac MAC) bool
	// SignatureSize is the wire size of a signature in bytes.
	SignatureSize() int
	// MACSize is the wire size of a MAC in bytes.
	MACSize() int
}

// ---------------------------------------------------------------------------
// Ed25519 suite
// ---------------------------------------------------------------------------

// Ed25519Suite implements Suite with real Ed25519 signatures and
// HMAC-SHA256 MACs. Keys are generated deterministically from a seed
// so that tests are reproducible.
type Ed25519Suite struct {
	seed int64
	priv map[NodeID]ed25519.PrivateKey
	pub  map[NodeID]ed25519.PublicKey
	// parsed caches decompressed public-key points (NodeID ->
	// *ed25519x.PublicKey) for batch verification: the key universe is
	// fixed, so each key pays its curve-point decompression once per
	// process instead of once per signature.
	parsed sync.Map
}

// NewEd25519Suite creates keys for node ids 0..n-1 (replicas and
// clients share one id space). The seed makes key generation
// deterministic. Pairwise MAC keys are derived from the seed on each
// MAC call, so the suite holds O(n) key material rather than O(n²).
func NewEd25519Suite(n int, seed int64) *Ed25519Suite {
	s := &Ed25519Suite{
		seed: seed,
		priv: make(map[NodeID]ed25519.PrivateKey, n),
		pub:  make(map[NodeID]ed25519.PublicKey, n),
	}
	for i := 0; i < n; i++ {
		var keySeed [ed25519.SeedSize]byte
		binary.LittleEndian.PutUint64(keySeed[0:8], uint64(seed))
		binary.LittleEndian.PutUint64(keySeed[8:16], uint64(i)+1)
		priv := ed25519.NewKeyFromSeed(keySeed[:])
		s.priv[NodeID(i)] = priv
		s.pub[NodeID(i)] = priv.Public().(ed25519.PublicKey)
	}
	return s
}

func u64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// Sign implements Suite.
func (s *Ed25519Suite) Sign(id NodeID, data []byte) Signature {
	priv, ok := s.priv[id]
	if !ok {
		panic(fmt.Sprintf("crypto: no private key for node %d", id))
	}
	return Signature(ed25519.Sign(priv, data))
}

// Verify implements Suite. The acceptance predicate is the cofactored
// equation of internal/crypto/ed25519x, the same one BatchVerify
// checks: whether a signature is checked alone, in a batch, or by
// bisection of a failed batch, the verdict is identical. A
// mixed-predicate suite (cofactorless singles, cofactored batches)
// would let an adversarial signature verify on one protocol path and
// fail on another, which in a replicated protocol means replicas
// disagreeing about message validity — a view-change-churn vector.
//
// crypto/ed25519 is tried first because its assembly field arithmetic
// is ~1.4-1.65x faster than the pure-Go cofactored check. Its acceptance
// implies the cofactored one (it accepts only when sig[:32] is the
// canonical encoding of [S]B - [k]A with S < l, so [8]([S]B - [k]A - R)
// is the identity), so an accept is final. Only a rejection falls
// through to ed25519x, which decides it: honest signatures cost one
// standard-library check, while a forgery costs both checks.
func (s *Ed25519Suite) Verify(id NodeID, data []byte, sig Signature) bool {
	pub, ok := s.pub[id]
	if !ok {
		return false
	}
	if ed25519.Verify(pub, data, sig) {
		return true
	}
	return ed25519x.Verify(s.parsedKey(id), data, sig)
}

// macKey derives the key of the channel between a and b, symmetric in
// its arguments. ok is false when either id is outside the suite.
func (s *Ed25519Suite) macKey(a, b NodeID) (key Digest, ok bool) {
	if a < 0 || b < 0 || int(a) >= len(s.pub) || int(b) >= len(s.pub) {
		return key, false
	}
	return HashParts([]byte("mac-key"), u64(uint64(s.seed)), u64(uint64(min(a, b))), u64(uint64(max(a, b)))), true
}

// MAC implements Suite.
func (s *Ed25519Suite) MAC(from, to NodeID, data []byte) MAC {
	key, ok := s.macKey(from, to)
	if !ok {
		panic(fmt.Sprintf("crypto: no MAC key for %d->%d", from, to))
	}
	h := hmac.New(sha256.New, key[:])
	h.Write(data)
	return h.Sum(nil)
}

// VerifyMAC implements Suite.
func (s *Ed25519Suite) VerifyMAC(from, to NodeID, data []byte, mac MAC) bool {
	key, ok := s.macKey(from, to)
	if !ok {
		return false
	}
	h := hmac.New(sha256.New, key[:])
	h.Write(data)
	return hmac.Equal(h.Sum(nil), mac)
}

// SignatureSize implements Suite.
func (s *Ed25519Suite) SignatureSize() int { return ed25519.SignatureSize }

// MACSize implements Suite.
func (s *Ed25519Suite) MACSize() int { return sha256.Size }

// parsedKey returns the cached decompressed point for id's public key,
// or nil if id has no key.
func (s *Ed25519Suite) parsedKey(id NodeID) *ed25519x.PublicKey {
	if k, ok := s.parsed.Load(id); ok {
		return k.(*ed25519x.PublicKey)
	}
	pub, ok := s.pub[id]
	if !ok {
		return nil
	}
	k, err := ed25519x.ParsePublicKey(pub)
	if err != nil {
		// Keys generated by NewEd25519Suite always decompress; a
		// failure here means the key map was corrupted.
		panic(fmt.Sprintf("crypto: public key of node %d does not decode: %v", id, err))
	}
	actual, _ := s.parsed.LoadOrStore(id, k)
	return actual.(*ed25519x.PublicKey)
}

// PublicKey returns node id's raw Ed25519 public key (nil if id has
// none). Exposed for benchmarks and external verifiers that need the
// standard-library representation.
func (s *Ed25519Suite) PublicKey(id NodeID) ed25519.PublicKey { return s.pub[id] }

// PrivateKey returns node id's Ed25519 private key (nil if id has
// none). The suite's keys are seed-derived deployment material; the
// TCP transport reuses them as TLS identity keys, so the channel
// certificates and the protocol signatures attest the same identity
// (see internal/transport's AutoTLS).
func (s *Ed25519Suite) PrivateKey(id NodeID) ed25519.PrivateKey { return s.priv[id] }

// SupportsBatchVerify implements BatchSuite.
func (s *Ed25519Suite) SupportsBatchVerify() bool { return true }

// BatchVerify implements BatchSuite: all jobs are checked in one
// multi-scalar pass (see internal/crypto/ed25519x). Verification is
// cofactored, so the verdict is independent of how callers group
// signatures into batches; for honestly generated signatures it always
// agrees with Verify.
func (s *Ed25519Suite) BatchVerify(jobs []VerifyJob) bool {
	if len(jobs) == 0 {
		return true
	}
	pubs := make([]*ed25519x.PublicKey, len(jobs))
	msgs := make([][]byte, len(jobs))
	sigs := make([][]byte, len(jobs))
	for i := range jobs {
		if pubs[i] = s.parsedKey(jobs[i].ID); pubs[i] == nil {
			return false
		}
		msgs[i] = jobs[i].Data
		sigs[i] = jobs[i].Sig
	}
	return ed25519x.VerifyBatch(pubs, msgs, sigs)
}

var _ BatchSuite = (*Ed25519Suite)(nil)

// ---------------------------------------------------------------------------
// Simulation suite
// ---------------------------------------------------------------------------

// SimSuite is a cheap deterministic suite for simulations. A
// "signature" is SHA-256(node-secret || data); verification recomputes
// it. Honest code cannot distinguish it from real crypto; adversarial
// test code fabricates invalid signatures by flipping bytes.
//
// Tags are padded (signatures) or truncated (MACs) to the *modeled*
// wire sizes — 128 bytes for the paper's RSA-1024 signatures, 20 bytes
// for HMAC-SHA1 — so that bandwidth accounting in the simulator sees
// the same byte counts the paper's deployment did.
type SimSuite struct {
	seed             uint64
	sigSize, macSize int
}

// NewSimSuite returns a simulation suite. Wire sizes model RSA-1024
// signatures (128 bytes) and HMAC-SHA1 MACs (20 bytes) to match the
// paper's bandwidth footprint.
func NewSimSuite(seed int64) *SimSuite {
	return &SimSuite{seed: uint64(seed), sigSize: 128, macSize: 20}
}

func (s *SimSuite) nodeSecret(id NodeID) Digest {
	return HashParts([]byte("sim-node-secret"), u64(s.seed), u64(uint64(id)))
}

// Sign implements Suite. The returned tag is the keyed digest padded
// to the modeled signature size.
func (s *SimSuite) Sign(id NodeID, data []byte) Signature {
	sec := s.nodeSecret(id)
	d := HashParts(sec[:], data)
	sig := make(Signature, s.sigSize)
	copy(sig, d[:])
	return sig
}

// Verify implements Suite.
func (s *SimSuite) Verify(id NodeID, data []byte, sig Signature) bool {
	if len(sig) != s.sigSize {
		return false
	}
	sec := s.nodeSecret(id)
	d := HashParts(sec[:], data)
	return hmac.Equal(sig[:DigestSize], d[:])
}

// MAC implements Suite. The tag is truncated to the modeled MAC size.
func (s *SimSuite) MAC(from, to NodeID, data []byte) MAC {
	key := HashParts([]byte("sim-mac"), u64(s.seed), u64(uint64(min(int(from), int(to)))), u64(uint64(max(int(from), int(to)))))
	d := HashParts(key[:], data)
	return MAC(d[:s.macSize])
}

// VerifyMAC implements Suite.
func (s *SimSuite) VerifyMAC(from, to NodeID, data []byte, mac MAC) bool {
	if len(mac) != s.macSize {
		return false
	}
	want := s.MAC(from, to, data)
	return hmac.Equal(mac, want)
}

// SignatureSize implements Suite.
func (s *SimSuite) SignatureSize() int { return s.sigSize }

// MACSize implements Suite.
func (s *SimSuite) MACSize() int { return s.macSize }

// SupportsBatchVerify implements BatchSuite. SimSuite has no batch
// algebra to amortize — each signature is recomputed individually —
// but advertising batch support routes simulated verifications through
// the same batch path the live Ed25519 suite takes, so the simulator's
// Meter counts them as batched and cost models with a batch discount
// (CostModelModern) price them accordingly.
func (s *SimSuite) SupportsBatchVerify() bool { return true }

// BatchVerify implements BatchSuite.
func (s *SimSuite) BatchVerify(jobs []VerifyJob) bool {
	for i := range jobs {
		if !s.Verify(jobs[i].ID, jobs[i].Data, jobs[i].Sig) {
			return false
		}
	}
	return true
}

var _ BatchSuite = (*SimSuite)(nil)
