// Package sig provides the cryptographic primitives used by the deal
// protocols: Ed25519 key pairs for parties and validators, SHA-256
// hashing, and the path signatures of the timelock commit protocol
// (Herlihy–Liskov–Shrira §5).
//
// A path signature is a chain of signatures over a commit vote. The voter
// signs the vote message; each party that forwards the vote signs the
// previous signature in the chain. An escrow contract accepts a vote with
// path p only if it arrives before t0 + |p|·Δ, so the chain length is
// load-bearing: it proves how many forwarding hops the vote took and
// therefore how late it may legitimately be.
//
// Signing, verification and key derivation are pure functions that the
// simulator repeats on identical inputs: same-shape deals share deal ids,
// party names and validator tags, so they sign and check the same bytes.
// The package memoizes all three in fixed tables of 4,096 slots each
// (768 KiB in all, allocated once and shared by every goroutine):
// successful Verify verdicts keyed by the SHA-256 of (public key,
// message, signature), signatures keyed by the SHA-256 of (private key,
// message), and public keys keyed by the derived Ed25519 seed. Only
// successful verdicts are kept; a failed or malformed signature is
// checked again on every call. Every hit returns a fresh copy. The memo
// changes no result and counts nothing: callers meter gas per logical
// verification (PathSig.Verify's counter, bft.Certificate.Verify,
// chain.Env.VerifySig), hit or miss.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// KeyPair holds an Ed25519 key pair for a party or validator.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeyPair derives a key pair deterministically from a seed string.
// Deterministic keys keep simulations reproducible; the seed plays the
// role of the party's identity secret.
func GenerateKeyPair(seed string) KeyPair {
	h := sha256.Sum256([]byte("xdeal/keyseed/" + seed))
	pub, ok := derived.load(&h)
	if !ok {
		pub = [32]byte(ed25519.NewKeyFromSeed(h[:])[ed25519.SeedSize:])
		derived.store(&h, pub)
	}
	// An Ed25519 private key is its seed followed by its public key.
	priv := make(ed25519.PrivateKey, 0, ed25519.PrivateKeySize)
	priv = append(append(priv, h[:]...), pub[:]...)
	return KeyPair{
		Public:  append(ed25519.PublicKey(nil), pub[:]...),
		private: priv,
	}
}

// Sign signs msg with the private key.
func (k KeyPair) Sign(msg []byte) []byte {
	key := Hash(k.private, msg)
	if s, ok := signed.load(&key); ok {
		return append([]byte(nil), s[:]...)
	}
	s := ed25519.Sign(k.private, msg)
	signed.store(&key, [64]byte(s))
	return s
}

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	key := Hash(pub, msg, sig)
	if _, ok := verified.load(&key); ok {
		return true
	}
	if !ed25519.Verify(pub, msg, sig) {
		return false
	}
	verified.store(&key, struct{}{})
	return true
}

// Hash returns the SHA-256 hash of the concatenation of parts, with
// length-prefixing so distinct part boundaries produce distinct inputs.
func Hash(parts ...[]byte) [32]byte {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashStrings is Hash over string parts.
func HashStrings(parts ...string) [32]byte {
	bs := make([][]byte, len(parts))
	for i, s := range parts {
		bs[i] = []byte(s)
	}
	return Hash(bs...)
}

// voteMessage is the canonical byte encoding of a commit vote on deal d by
// voter v. The deal identifier acts as a nonce (§5: "Since D is
// effectively a nonce, nothing extra is needed to guard against replay
// attacks").
func voteMessage(deal, voter string) []byte {
	h := HashStrings("xdeal/vote", deal, voter)
	return h[:]
}

// PathSig is a commit vote together with its forwarding chain.
//
// Signers[0] is the voter; Signers[i] for i > 0 forwarded the vote.
// Sigs[0] signs the vote message; Sigs[i] signs Sigs[i-1].
type PathSig struct {
	Deal    string
	Voter   string
	Signers []string
	Sigs    [][]byte
}

// NewVote creates a direct (path length 1) commit vote by voter on deal.
func NewVote(deal, voter string, key KeyPair) PathSig {
	return PathSig{
		Deal:    deal,
		Voter:   voter,
		Signers: []string{voter},
		Sigs:    [][]byte{key.Sign(voteMessage(deal, voter))},
	}
}

// Forward returns a copy of the vote extended with forwarder's signature.
// The receiver is not modified.
func (p PathSig) Forward(forwarder string, key KeyPair) PathSig {
	signers := make([]string, len(p.Signers)+1)
	copy(signers, p.Signers)
	signers[len(p.Signers)] = forwarder

	sigs := make([][]byte, len(p.Sigs)+1)
	copy(sigs, p.Sigs)
	sigs[len(p.Sigs)] = key.Sign(p.Sigs[len(p.Sigs)-1])

	return PathSig{Deal: p.Deal, Voter: p.Voter, Signers: signers, Sigs: sigs}
}

// Len returns the path length |p| (number of signatures).
func (p PathSig) Len() int { return len(p.Signers) }

// Errors returned by Verify.
var (
	ErrEmptyPath        = errors.New("sig: empty signature path")
	ErrMalformedPath    = errors.New("sig: signer and signature counts differ")
	ErrVoterMismatch    = errors.New("sig: first signer is not the voter")
	ErrDuplicateSigner  = errors.New("sig: duplicate signer in path")
	ErrUnknownSigner    = errors.New("sig: signer has no registered public key")
	ErrInvalidSignature = errors.New("sig: invalid signature in path")
)

// Verify checks the full signature chain: the voter's signature over the
// vote message and each forwarder's signature over the preceding
// signature. keys maps party identity to public key; a missing entry
// fails verification. verifications, when non-nil, is incremented once
// per signature verification performed, letting callers meter gas the way
// §7.1 counts cost.
func (p PathSig) Verify(keys map[string]ed25519.PublicKey, verifications *int) error {
	if len(p.Signers) == 0 {
		return ErrEmptyPath
	}
	if len(p.Signers) != len(p.Sigs) {
		return ErrMalformedPath
	}
	if p.Signers[0] != p.Voter {
		return ErrVoterMismatch
	}
	seen := make(map[string]bool, len(p.Signers))
	for _, s := range p.Signers {
		if seen[s] {
			return fmt.Errorf("%w: %s", ErrDuplicateSigner, s)
		}
		seen[s] = true
	}
	msg := voteMessage(p.Deal, p.Voter)
	for i, signer := range p.Signers {
		pub, ok := keys[signer]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownSigner, signer)
		}
		if verifications != nil {
			*verifications++
		}
		if !Verify(pub, msg, p.Sigs[i]) {
			return fmt.Errorf("%w: position %d (%s)", ErrInvalidSignature, i, signer)
		}
		msg = p.Sigs[i] // next signature covers this one
	}
	return nil
}

// Clone returns a deep copy of the path signature.
func (p PathSig) Clone() PathSig {
	signers := make([]string, len(p.Signers))
	copy(signers, p.Signers)
	sigs := make([][]byte, len(p.Sigs))
	for i, s := range p.Sigs {
		sigs[i] = append([]byte(nil), s...)
	}
	return PathSig{Deal: p.Deal, Voter: p.Voter, Signers: signers, Sigs: sigs}
}

// Contains reports whether party appears anywhere in the signer path.
func (p PathSig) Contains(party string) bool {
	for _, s := range p.Signers {
		if s == party {
			return true
		}
	}
	return false
}
