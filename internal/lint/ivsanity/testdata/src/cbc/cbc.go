// Package cbc is the ivsanity fixture: flagged and clean IV provenance
// shapes around cipher.NewCBCEncrypter.
package cbc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"hash"
	"io"
)

func blockOf(key []byte) cipher.Block {
	b, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	return b
}

// RandomIV is the canonical randomized shape.
func RandomIV(key, pt []byte) []byte {
	iv := make([]byte, 16)
	if _, err := rand.Read(iv); err != nil {
		return nil
	}
	ct := make([]byte, len(pt))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt)
	return ct
}

// ReadFullIV: io.ReadFull(rand.Reader, iv) is equally sound.
func ReadFullIV(key, pt []byte) []byte {
	iv := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil
	}
	ct := make([]byte, len(pt))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt)
	return ct
}

// DerivedIV is the deterministic shape: HMAC of the plaintext.
func DerivedIV(key, ivKey, pt []byte) []byte {
	iv := make([]byte, 16)
	m := hmac.New(sha256.New, ivKey)
	m.Write(pt)
	copy(iv, m.Sum(nil))
	ct := make([]byte, len(pt))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt)
	return ct
}

// scheduledMAC stands in for an HMAC resumed from a scheduled key: the
// keyedHash marker makes its Sum a derived IV.
type scheduledMAC struct{ h hash.Hash }

func (m scheduledMAC) Write(p []byte)      { m.h.Write(p) }
func (m scheduledMAC) Sum(b []byte) []byte { return m.h.Sum(b) }
func (scheduledMAC) keyedHash()            {}

func newScheduledMAC(ivKey []byte) (scheduledMAC, error) {
	return scheduledMAC{hmac.New(sha256.New, ivKey)}, nil
}

// ScheduledIV derives the IV from a marked keyed hash, summing into the IV's
// own buffer.
func ScheduledIV(key, ivKey, pt []byte) []byte {
	iv := make([]byte, 16, 32)
	m, err := newScheduledMAC(ivKey)
	if err != nil {
		return nil
	}
	m.Write(pt)
	iv = m.Sum(iv[:0])[:16]
	ct := make([]byte, len(pt))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt)
	return ct
}

// UnmarkedIV: a Sum of a hash without the marker is no derivation.
func UnmarkedIV(key, pt []byte) []byte {
	iv := make([]byte, 16, 32)
	h := sha256.New()
	h.Write(pt)
	iv = h.Sum(iv[:0])[:16]
	ct := make([]byte, len(pt))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt) // want `CBC IV provenance is not locally provable`
	return ct
}

// EitherIV merges a random path and a derived path — both sound.
func EitherIV(key, ivKey, pt []byte, deterministic bool) []byte {
	iv := make([]byte, 16)
	if deterministic {
		m := hmac.New(sha256.New, ivKey)
		m.Write(pt)
		copy(iv, m.Sum(nil))
	} else {
		if _, err := rand.Read(iv); err != nil {
			return nil
		}
	}
	ct := make([]byte, len(pt))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt)
	return ct
}

// ConstantIV never fills the buffer: an all-zero IV.
func ConstantIV(key, pt []byte) []byte {
	iv := make([]byte, 16)
	ct := make([]byte, len(pt))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt) // want `CBC IV provenance is not locally provable`
	return ct
}

// ParamIV takes the IV from the caller: provenance is not locally provable.
func ParamIV(key, iv, pt []byte) []byte {
	ct := make([]byte, len(pt))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt) // want `CBC IV provenance is not locally provable`
	return ct
}

// ReusedIV consumes the same IV twice.
func ReusedIV(key, pt1, pt2 []byte) ([]byte, []byte) {
	iv := make([]byte, 16)
	if _, err := rand.Read(iv); err != nil {
		return nil, nil
	}
	ct1 := make([]byte, len(pt1))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct1, pt1)
	ct2 := make([]byte, len(pt2))
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct2, pt2) // want `CBC IV is reused for a second encryption`
	return ct1, ct2
}

// LoopReuse draws the IV once but encrypts per iteration.
func LoopReuse(key []byte, msgs [][]byte) [][]byte {
	iv := make([]byte, 16)
	if _, err := rand.Read(iv); err != nil {
		return nil
	}
	var out [][]byte
	for _, pt := range msgs {
		ct := make([]byte, len(pt))
		cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt) // want `CBC IV is reused for a second encryption`
		out = append(out, ct)
	}
	return out
}

// LoopFresh redraws the IV every iteration — clean.
func LoopFresh(key []byte, msgs [][]byte) [][]byte {
	iv := make([]byte, 16)
	var out [][]byte
	for _, pt := range msgs {
		if _, err := rand.Read(iv); err != nil {
			return nil
		}
		ct := make([]byte, len(pt))
		cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(ct, pt)
		out = append(out, ct)
	}
	return out
}

// SlicedIV writes the IV directly into the output envelope — the base
// buffer's slice carries the provenance.
func SlicedIV(key, pt []byte) []byte {
	out := make([]byte, 16+len(pt))
	iv := out[:16]
	if _, err := rand.Read(iv); err != nil {
		return nil
	}
	cipher.NewCBCEncrypter(blockOf(key), iv).CryptBlocks(out[16:], pt)
	return out
}
