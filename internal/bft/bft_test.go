package bft

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestCommitteeShape(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 2)
	if c.Size() != 7 {
		t.Fatalf("size = %d, want 3f+1 = 7", c.Size())
	}
	if c.Quorum() != 5 {
		t.Fatalf("quorum = %d, want 2f+1 = 5", c.Quorum())
	}
	if len(signers) != 7 {
		t.Fatalf("signers = %d, want 7", len(signers))
	}
	for _, s := range signers {
		pub, ok := c.Key(s.ID)
		if !ok || string(pub) != string(s.Public) {
			t.Fatalf("signer %s not in committee", s.ID)
		}
	}
}

func TestCommitteeDeterministic(t *testing.T) {
	a, _ := NewCommittee("cbc", 0, 1)
	b, _ := NewCommittee("cbc", 0, 1)
	if string(a.Encode()) != string(b.Encode()) {
		t.Fatal("same-tag committees differ")
	}
	c, _ := NewCommittee("other", 0, 1)
	if string(a.Encode()) == string(c.Encode()) {
		t.Fatal("different-tag committees identical")
	}
}

// TestEncodedEqualMatchesEncode holds EncodedEqual to the byte
// comparison it replaces, string(c.Encode()) == string(enc), on every
// pairing of a set of committees and encodings, including ambiguous ones
// built from members with short public keys.
func TestEncodedEqualMatchesEncode(t *testing.T) {
	base, _ := NewCommittee("cbc", 0, 1)
	foreign, _ := NewCommittee("evil", 0, 1)
	nextEpoch, _ := NewCommittee("cbc", 1, 1)
	pub := base.Members[0].Public
	short := Committee{Members: []Member{{ID: "a", Public: pub[:10]}}}
	// ["a" with a 10-byte key, "b" with the rest] encodes exactly like
	// "a" alone with a key spanning both: the comparison says equal.
	split := Committee{Members: []Member{
		{ID: "a", Public: pub[:10]}, {ID: "b", Public: pub[10:]},
	}}
	joined := Committee{Members: []Member{{ID: "a",
		Public: append(append(append([]byte(nil), pub[:10]...), 0, 0, 0, 0, 0, 0, 0, 1, 'b'), pub[10:]...)}}}
	committees := map[string]Committee{
		"base":       base,
		"foreign":    foreign,
		"next-epoch": nextEpoch,
		"higher-f":   {Epoch: 0, F: 2, Members: base.Members},
		"no-members": {Epoch: 0, F: 1},
		"reordered":  {Epoch: 0, F: 1, Members: []Member{base.Members[1], base.Members[0], base.Members[2], base.Members[3]}},
		"short-key":  short,
		"split":      split,
		"joined":     joined,
	}
	encodings := map[string][]byte{"nil": nil, "empty": {}}
	for name, c := range committees {
		enc := c.Encode()
		encodings[name] = enc
		encodings[name+"/truncated"] = enc[:len(enc)-1]
		encodings[name+"/extended"] = append(append([]byte(nil), enc...), 0)
	}
	if !split.EncodedEqual(joined.Encode()) {
		t.Fatal("split and joined committees must share an encoding")
	}
	for cname, c := range committees {
		for ename, enc := range encodings {
			want := string(c.Encode()) == string(enc)
			if got := c.EncodedEqual(enc); got != want {
				t.Errorf("%s.EncodedEqual(%s) = %v, Encode comparison says %v", cname, ename, got, want)
			}
		}
	}
	enc := base.Encode()
	if n := testing.AllocsPerRun(100, func() { base.EncodedEqual(enc) }); n != 0 {
		t.Errorf("EncodedEqual allocates %v times per call, want 0", n)
	}
}

func TestCertificateQuorumAccepted(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1) // 4 validators, quorum 3
	stmt := []byte("deal D committed")
	cert := MakeCertificate(stmt, 0, signers[:3])
	var n int
	if err := cert.Verify(c, &n); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("verifications = %d, want 2f+1 = 3", n)
	}
}

func TestCertificateUnderQuorumRejected(t *testing.T) {
	// f Byzantine validators alone cannot certify anything — this is the
	// core of why BFT proofs are final (§6.2).
	c, signers := NewCommittee("cbc", 0, 1)
	cert := MakeCertificate([]byte("fake abort"), 0, signers[:2])
	if err := cert.Verify(c, nil); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestCertificateDuplicateSignerRejected(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1)
	cert := MakeCertificate([]byte("x"), 0, []Signer{signers[0], signers[0], signers[1]})
	if err := cert.Verify(c, nil); !errors.Is(err, ErrDuplicateValidator) {
		t.Fatalf("err = %v, want ErrDuplicateValidator", err)
	}
}

func TestCertificateOutsiderRejected(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1)
	outsider := NewSigner("intruder")
	cert := MakeCertificate([]byte("x"), 0, []Signer{signers[0], signers[1], outsider})
	if err := cert.Verify(c, nil); !errors.Is(err, ErrUnknownValidator) {
		t.Fatalf("err = %v, want ErrUnknownValidator", err)
	}
}

func TestCertificateWrongEpochRejected(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1)
	cert := MakeCertificate([]byte("x"), 1, signers[:3])
	if err := cert.Verify(c, nil); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("err = %v, want ErrWrongEpoch", err)
	}
}

func TestCertificateTamperedStatementRejected(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1)
	cert := MakeCertificate([]byte("commit"), 0, signers[:3])
	cert.Statement = []byte("abort!")
	if err := cert.Verify(c, nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestCertificateForeignSignatureRejected(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1)
	cert := MakeCertificate([]byte("x"), 0, signers[:3])
	// Swap in a signature from a different validator (valid key, wrong
	// claimed identity).
	cert.Sigs[0].Sig = signers[3].Sign([]byte("x"))
	if err := cert.Verify(c, nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestReconfigChain(t *testing.T) {
	c0, s0 := NewCommittee("cbc", 0, 1)
	c1, s1 := NewCommittee("cbc", 1, 1)
	c2, _ := NewCommittee("cbc", 2, 1)

	chain := []Reconfig{
		NewReconfig(c1, 0, s0[:3]),
		NewReconfig(c2, 1, s1[:3]),
	}
	var n int
	final, err := VerifyChain(c0, chain, &n)
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != 2 {
		t.Fatalf("final epoch = %d, want 2", final.Epoch)
	}
	// k=2 reconfigs at quorum 3 each: 6 verifications so far; a final
	// status certificate adds 3 more, giving (k+1)(2f+1) = 9 total.
	if n != 6 {
		t.Fatalf("verifications = %d, want 6", n)
	}
}

func TestReconfigChainEmptyIsInitial(t *testing.T) {
	c0, _ := NewCommittee("cbc", 0, 1)
	final, err := VerifyChain(c0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != 0 {
		t.Fatal("empty chain should return the initial committee")
	}
}

func TestReconfigChainGapRejected(t *testing.T) {
	c0, s0 := NewCommittee("cbc", 0, 1)
	c2, _ := NewCommittee("cbc", 2, 1) // skips epoch 1
	chain := []Reconfig{NewReconfig(c2, 0, s0[:3])}
	if _, err := VerifyChain(c0, chain, nil); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("err = %v, want ErrBrokenChain", err)
	}
}

func TestReconfigUnderQuorumRejected(t *testing.T) {
	// Old validators cannot hand over authority without a quorum — a
	// pair of corrupt validators cannot install a fake committee.
	c0, s0 := NewCommittee("cbc", 0, 1)
	evil, _ := NewCommittee("evil", 1, 1)
	chain := []Reconfig{NewReconfig(evil, 0, s0[:2])}
	if _, err := VerifyChain(c0, chain, nil); err == nil {
		t.Fatal("under-quorum reconfiguration accepted")
	}
}

func TestReconfigSubstitutedCommitteeRejected(t *testing.T) {
	// A valid handover certificate for committee X cannot be reused to
	// install committee Y.
	c0, s0 := NewCommittee("cbc", 0, 1)
	c1, _ := NewCommittee("cbc", 1, 1)
	evil, _ := NewCommittee("evil", 1, 1)
	rc := NewReconfig(c1, 0, s0[:3])
	rc.Next = evil // swap the installed committee, keep the cert
	if _, err := VerifyChain(c0, []Reconfig{rc}, nil); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("err = %v, want ErrBrokenChain", err)
	}
}

func TestQuickQuorumThreshold(t *testing.T) {
	// Property: a certificate verifies iff it carries ≥ 2f+1 distinct
	// valid committee signatures.
	prop := func(fRaw, kRaw uint8) bool {
		f := int(fRaw)%3 + 1
		c, signers := NewCommittee("q", 0, f)
		k := int(kRaw) % (len(signers) + 1)
		cert := MakeCertificate([]byte("stmt"), 0, signers[:k])
		err := cert.Verify(c, nil)
		if k >= c.Quorum() {
			return err == nil
		}
		return errors.Is(err, ErrNoQuorum)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTamperedCertificateNeverVerifies(t *testing.T) {
	c, signers := NewCommittee("q", 0, 1)
	base := MakeCertificate([]byte("statement"), 0, signers[:3])
	prop := func(sigIdx, byteIdx uint16, bit uint8) bool {
		cert := Certificate{Epoch: base.Epoch, Statement: append([]byte(nil), base.Statement...)}
		for _, s := range base.Sigs {
			cert.Sigs = append(cert.Sigs, Signature{Validator: s.Validator, Sig: append([]byte(nil), s.Sig...)})
		}
		i := int(sigIdx) % len(cert.Sigs)
		j := int(byteIdx) % len(cert.Sigs[i].Sig)
		cert.Sigs[i].Sig[j] ^= 1 << (bit % 8)
		return cert.Verify(c, nil) != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
