// Package aecrypto is the ctcompare fixture: it defines its own key-material
// sources (the analyzer recognizes them by package path) and exercises the
// flagged and clean comparison shapes.
package aecrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
)

// GenerateKey returns a fresh random root key (a recognized source).
func GenerateKey() ([]byte, error) {
	k := make([]byte, 32)
	_, err := rand.Read(k)
	return k, err
}

// VariableTimeMAC compares an HMAC output with bytes.Equal.
func VariableTimeMAC(key, msg, tag []byte) bool {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	sum := m.Sum(nil)
	return bytes.Equal(sum, tag) // want `secret-derived value in variable-time comparison \(bytes\.Equal\)`
}

// ConstantTimeMAC is the sanctioned shape.
func ConstantTimeMAC(key, msg, tag []byte) bool {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	return hmac.Equal(m.Sum(nil), tag)
}

// SubtleCompare is also clean: subtle.* is a universal sanitizer.
func SubtleCompare(key, msg, tag []byte) bool {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	return subtle.ConstantTimeCompare(m.Sum(nil), tag) == 1
}

// PaddingOracle branches on decrypted padding bytes — the CBC padding
// oracle shape: the CryptBlocks destination is plaintext-labeled.
func PaddingOracle(key, iv, ct []byte) bool {
	block, err := aes.NewCipher(key)
	if err != nil {
		return false
	}
	padded := make([]byte, len(ct))
	cipher.NewCBCDecrypter(block, iv).CryptBlocks(padded, ct)
	n := int(padded[len(padded)-1])
	return n > 16 // want `secret-derived value in variable-time comparison \(>\)`
}

// BlockPaddingOracle is the same shape with CBC opened block by block:
// the cipher.Block Decrypt destination is plaintext-labeled too.
func BlockPaddingOracle(block cipher.Block, iv, ct []byte) bool {
	padded := make([]byte, len(ct))
	prev := iv
	for i := 0; i < len(ct); i += 16 {
		block.Decrypt(padded[i:i+16], ct[i:i+16])
		subtle.XORBytes(padded[i:i+16], padded[i:i+16], prev)
		prev = ct[i : i+16]
	}
	n := int(padded[len(padded)-1])
	return n > 16 // want `secret-derived value in variable-time comparison \(>\)`
}

// KeyEquality compares raw key bytes directly.
func KeyEquality(stored []byte) (bool, error) {
	k, err := GenerateKey()
	if err != nil {
		return false, err
	}
	return bytes.Equal(k, stored), nil // want `secret-derived value in variable-time comparison \(bytes\.Equal\)`
}

// ViaHelper hands a secret to a helper whose summary shows a variable-time
// comparison — reported at the call site.
func ViaHelper(stored []byte) (bool, error) {
	k, err := GenerateKey()
	if err != nil {
		return false, err
	}
	return weakCheck(k, stored), nil // want `secret-derived value reaches variable-time comparison \(bytes\.Equal\) inside weakCheck`
}

// weakCheck is the leaky helper (its own body compares parameters, which
// are only flagged at call sites that pass secrets).
func weakCheck(a, b []byte) bool {
	return bytes.Equal(a, b)
}

// LengthCheck is clean: len() sanitizes, sizes are public.
func LengthCheck(key, msg []byte) bool {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	return len(m.Sum(nil)) == sha256.Size
}

// ErrCheck is clean: branching on err != nil is control flow over an
// interface, not a data comparison.
func ErrCheck() bool {
	k, err := GenerateKey()
	if err != nil {
		return false
	}
	return len(k) == 32
}

// PublicCompare is clean: no secret-derived operand.
func PublicCompare(name string) bool {
	return name == "AEAD_AES_256_CBC_HMAC_SHA_256"
}
