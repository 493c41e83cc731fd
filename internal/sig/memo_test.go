package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// directVerify is the uncached oracle: what Verify returned before the
// memo existed.
func directVerify(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// Verify input shapes the fuzz target builds.
const (
	inputValid = iota
	inputForged
	inputBitFlipped
	inputTruncated
	inputWrongKeyLength
	inputWrongMessage
	inputWrongKey
	inputRaw
	inputKinds
)

// FuzzVerifyMemo is the differential oracle for the verify memo: every
// verdict Verify gives, fresh or from the table, must equal a direct
// ed25519.Verify. The genuine signature of the message is verified
// first, so the table holds a near miss for every tampered input. Each
// input is then verified twice, with valid entries filling slots in
// between and, when evict is set, a colliding entry taking the input's
// own slot.
func FuzzVerifyMemo(f *testing.F) {
	f.Add(uint8(inputValid), []byte("xdeal/vote"), uint16(0), uint8(0), false, []byte(nil))
	f.Add(uint8(inputForged), []byte("commit D"), uint16(3), uint8(4), false, []byte(nil))
	f.Add(uint8(inputBitFlipped), []byte("abort D"), uint16(511), uint8(16), true, []byte(nil))
	f.Add(uint8(inputTruncated), []byte{}, uint16(63), uint8(1), false, []byte(nil))
	f.Add(uint8(inputWrongKeyLength), []byte("m"), uint16(31), uint8(2), true, []byte(nil))
	f.Add(uint8(inputWrongMessage), []byte("m"), uint16(0), uint8(0), false, []byte(nil))
	f.Add(uint8(inputWrongKey), []byte("m"), uint16(0), uint8(0), false, []byte(nil))
	f.Add(uint8(inputRaw), []byte("m"), uint16(0), uint8(0), false, make([]byte, 64))
	signer := GenerateKeyPair("fuzz/signer")
	forger := GenerateKeyPair("fuzz/forger")
	f.Fuzz(func(t *testing.T, kind uint8, msg []byte, pos uint16, fill uint8, evict bool, raw []byte) {
		pub := signer.Public
		s := signer.Sign(msg)
		if !Verify(pub, msg, s) {
			t.Fatal("genuine signature rejected")
		}
		switch kind % inputKinds {
		case inputForged:
			s = forger.Sign(msg)
		case inputBitFlipped:
			s[int(pos)/8%len(s)] ^= 1 << (pos % 8)
		case inputTruncated:
			s = s[:int(pos)%len(s)]
		case inputWrongKeyLength:
			if n := int(pos) % (2 * ed25519.PublicKeySize); n != ed25519.PublicKeySize {
				pub = append(append(ed25519.PublicKey(nil), pub...), pub...)[:n]
			}
		case inputWrongMessage:
			msg = append(msg[:len(msg):len(msg)], byte(pos))
		case inputWrongKey:
			pub = forger.Public
		case inputRaw:
			s = raw
		}
		want := directVerify(pub, msg, s)
		for round := 0; round < 2; round++ {
			if got := Verify(pub, msg, s); got != want {
				t.Fatalf("round %d: Verify = %v, ed25519.Verify = %v", round, got, want)
			}
			if len(pub) == ed25519.PublicKeySize {
				key := Hash(pub, msg, s)
				if _, cached := verified.load(&key); cached && !want {
					t.Fatalf("round %d: a failed verdict was cached", round)
				}
				if evict {
					collider := key
					collider[31] ^= 0xff // same slot, different key
					verified.store(&collider, struct{}{})
				}
			}
			for i := 0; i < int(fill); i++ {
				m := fmt.Appendf(nil, "fuzz/fill/%x/%d/%d", msg, round, i)
				if fs := signer.Sign(m); !Verify(signer.Public, m, fs) {
					t.Fatalf("fill entry %d rejected", i)
				}
			}
		}
	})
}

func TestSignReturnsFreshCopy(t *testing.T) {
	kp := GenerateKeyPair("alias/signer")
	msg := []byte("alias/message")
	first := kp.Sign(msg)
	want := append([]byte(nil), first...)
	first[0] ^= 0xff
	for i := 0; i < 2; i++ { // the first call after a miss stored it, the rest hit
		again := kp.Sign(msg)
		if string(again) != string(want) {
			t.Fatalf("call %d: Sign returned mutated bytes %x, want %x", i, again, want)
		}
		again[1] ^= 0xff
	}
}

func TestGenerateKeyPairReturnsFreshCopy(t *testing.T) {
	first := GenerateKeyPair("alias/party")
	want := append(ed25519.PublicKey(nil), first.Public...)
	first.Public[0] ^= 0xff
	again := GenerateKeyPair("alias/party")
	if string(again.Public) != string(want) {
		t.Fatalf("GenerateKeyPair returned mutated public key %x, want %x", again.Public, want)
	}
	// The private key still matches the public key: a signature it makes
	// verifies under the returned Public.
	msg := []byte("alias/keypair")
	if !directVerify(again.Public, msg, again.Sign(msg)) {
		t.Fatal("memoized key pair signs with a key that does not match its Public")
	}
	if string(again.private) != string(uncachedPrivateKey("alias/party")) {
		t.Fatal("memoized private key differs from a fresh derivation")
	}
}

// uncachedPrivateKey is GenerateKeyPair's private key without the memo.
func uncachedPrivateKey(seed string) ed25519.PrivateKey {
	h := sha256.Sum256([]byte("xdeal/keyseed/" + seed))
	return ed25519.NewKeyFromSeed(h[:])
}

// TestMemoConcurrentAgreesWithSerial runs signing, verification and key
// derivation from 8 goroutines over overlapping inputs, and requires
// every result to equal a serial pass that bypasses the memo.
func TestMemoConcurrentAgreesWithSerial(t *testing.T) {
	const goroutines, seeds, msgs = 8, 6, 24
	type want struct {
		pub ed25519.PublicKey
		sig [msgs][]byte
	}
	wants := make([]want, seeds)
	for s := range wants {
		priv := uncachedPrivateKey(fmt.Sprintf("concurrent/%d", s))
		wants[s].pub = priv.Public().(ed25519.PublicKey)
		for m := range msgs {
			wants[s].sig[m] = ed25519.Sign(priv, concurrentMsg(m))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < seeds*msgs; i++ {
				j := (i*7 + g*5) % (seeds * msgs) // each goroutine walks the inputs in its own order
				s, m := j/msgs, j%msgs
				kp := GenerateKeyPair(fmt.Sprintf("concurrent/%d", s))
				if string(kp.Public) != string(wants[s].pub) {
					t.Errorf("goroutine %d: seed %d derived a different public key", g, s)
					return
				}
				sig := kp.Sign(concurrentMsg(m))
				if string(sig) != string(wants[s].sig[m]) {
					t.Errorf("goroutine %d: seed %d message %d signed differently", g, s, m)
					return
				}
				if !Verify(kp.Public, concurrentMsg(m), sig) {
					t.Errorf("goroutine %d: seed %d message %d: valid signature rejected", g, s, m)
					return
				}
				bad := append([]byte(nil), sig...)
				bad[g] ^= 1
				if Verify(kp.Public, concurrentMsg(m), bad) {
					t.Errorf("goroutine %d: seed %d message %d: flipped signature accepted", g, s, m)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func concurrentMsg(m int) []byte {
	return binary.BigEndian.AppendUint64([]byte("concurrent/msg/"), uint64(m))
}
