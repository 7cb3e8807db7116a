package cbc

import (
	"crypto/cipher"
	"crypto/rand"
)

// ivResetter is a CBC block mode that can be re-IVed for its next
// encryption, as the standard library's CBC encrypters are.
type ivResetter interface {
	cipher.BlockMode
	SetIV(iv []byte)
}

// SetFreshIV re-IVs a long-lived encrypter with an IV drawn in the same
// function — clean.
func SetFreshIV(m ivResetter, pt []byte) []byte {
	out := make([]byte, 16+len(pt))
	iv := out[:16]
	if _, err := rand.Read(iv); err != nil {
		return nil
	}
	m.SetIV(iv)
	m.CryptBlocks(out[16:], pt)
	return out
}

// SetConstantIV re-IVs with an IV nothing filled.
func SetConstantIV(m ivResetter, pt []byte) []byte {
	iv := make([]byte, 16)
	m.SetIV(iv) // want `CBC IV provenance is not locally provable`
	ct := make([]byte, len(pt))
	m.CryptBlocks(ct, pt)
	return ct
}

// SetParamIV re-IVs with an IV of the caller's choosing.
func SetParamIV(m ivResetter, iv, pt []byte) []byte {
	m.SetIV(iv) // want `CBC IV provenance is not locally provable`
	ct := make([]byte, len(pt))
	m.CryptBlocks(ct, pt)
	return ct
}

// SetReusedIV feeds one random IV to two encryptions.
func SetReusedIV(m ivResetter, pt1, pt2 []byte) ([]byte, []byte) {
	iv := make([]byte, 16)
	if _, err := rand.Read(iv); err != nil {
		return nil, nil
	}
	m.SetIV(iv)
	ct1 := make([]byte, len(pt1))
	m.CryptBlocks(ct1, pt1)
	m.SetIV(iv) // want `CBC IV is reused for a second encryption`
	ct2 := make([]byte, len(pt2))
	m.CryptBlocks(ct2, pt2)
	return ct1, ct2
}

// SetOrBuild builds the encrypter on first use and re-IVs it afterwards:
// each path consumes the fresh IV once.
func SetOrBuild(b cipher.Block, m cipher.BlockMode, pt []byte) ([]byte, cipher.BlockMode) {
	iv := make([]byte, 16)
	if _, err := rand.Read(iv); err != nil {
		return nil, m
	}
	if r, ok := m.(ivResetter); ok {
		r.SetIV(iv)
	} else {
		m = cipher.NewCBCEncrypter(b, iv)
	}
	ct := make([]byte, len(pt))
	m.CryptBlocks(ct, pt)
	return ct, m
}
