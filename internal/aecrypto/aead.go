// Package aecrypto implements the cell-level cryptography used by Always
// Encrypted: the AEAD_AES_256_CBC_HMAC_SHA_256 authenticated encryption
// algorithm in both its randomized and deterministic variants, the
// HMAC-SHA256 derivation of the encryption/MAC/IV keys from the 32-byte
// column encryption key (CEK) root, and the RSA-OAEP wrapping and RSA-PSS
// signing used for the key hierarchy.
//
// The ciphertext layout matches the shipped SQL Server algorithm:
//
//	version(1) || authentication tag(32) || IV(16) || AES-256-CBC ciphertext
//
// where the authentication tag is HMAC-SHA256 over
// version || IV || ciphertext || versionByteLength.
package aecrypto

import (
	"crypto/aes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"errors"
	"fmt"
	"hash"
	"strconv"
)

// EncryptionType selects between the two cell encryption schemes of §2.3.
type EncryptionType int

const (
	// Randomized encryption uses AES-CBC with a random IV; it is IND-CPA
	// secure and supports no server-side operations without an enclave.
	Randomized EncryptionType = 1
	// Deterministic encryption derives the IV from the plaintext so equal
	// plaintexts map to equal ciphertexts, enabling equality over ciphertext
	// at the cost of leaking the frequency distribution of the column.
	Deterministic EncryptionType = 2
)

func (t EncryptionType) String() string {
	switch t {
	case Randomized:
		return "RANDOMIZED"
	case Deterministic:
		return "DETERMINISTIC"
	default:
		return fmt.Sprintf("EncryptionType(%d)", int(t))
	}
}

// AlgorithmName is the only cell encryption algorithm supported today; the
// DDL requires it to be spelled out so the scheme remains extensible (§2.2).
const AlgorithmName = "AEAD_AES_256_CBC_HMAC_SHA_256"

const (
	// KeySize is the size in bytes of a column encryption key root.
	KeySize = 32
	// versionByte is the format version of the ciphertext envelope.
	versionByte = 0x01
	blockSize   = aes.BlockSize // 16
	tagSize     = sha256.Size   // 32
	// MinCiphertextSize is the smallest well-formed envelope: a version
	// byte, a tag, an IV and one AES block.
	MinCiphertextSize = 1 + tagSize + blockSize + blockSize
)

// Errors returned by Open, Decrypt and the envelope parsers.
var (
	ErrInvalidCiphertext = errors.New("aecrypto: malformed ciphertext envelope")
	ErrAuthFailed        = errors.New("aecrypto: HMAC validation failed (ciphertext corrupt or wrong key)")
	ErrInvalidKeySize    = errors.New("aecrypto: column encryption key must be 32 bytes")
)

// keyDerivationSalt mirrors the SQL Server derivation strings; the root CEK
// never encrypts data directly, three purpose-bound keys are derived from it.
func keyDerivationSalt(purpose string) []byte {
	s := "Microsoft SQL Server cell " + purpose +
		" key with encryption algorithm:" + AlgorithmName + " and key length:256"
	// SQL Server hashes the UTF-16LE encoding of the derivation string.
	out := make([]byte, 0, len(s)*2)
	for _, r := range s {
		out = append(out, byte(r), byte(r>>8))
	}
	return out
}

func deriveKey(root []byte, purpose string) []byte {
	m := hmac.New(sha256.New, root)
	m.Write(keyDerivationSalt(purpose))
	return m.Sum(nil)
}

// CellKey holds the three derived keys for one CEK root. Deriving once and
// reusing the CellKey amortizes the three HMAC invocations across cells; the
// two HMAC keys are also kept scheduled, so a cell's MAC and a deterministic
// IV cost no re-keying either.
type CellKey struct {
	encKey []byte // AES-256 key
	macKey []byte // HMAC-SHA256 key for the authentication tag
	ivKey  []byte // HMAC-SHA256 key for deterministic IVs
	mac    hmacKey
	iv     hmacKey
}

// NewCellKey derives the encryption, MAC and IV keys from a 32-byte CEK root.
func NewCellKey(root []byte) (*CellKey, error) {
	if len(root) != KeySize {
		return nil, ErrInvalidKeySize
	}
	k := &CellKey{
		encKey: deriveKey(root, "encryption"),
		macKey: deriveKey(root, "MAC"),
		ivKey:  deriveKey(root, "IV"),
	}
	k.mac, k.iv = newHMACKey(k.macKey), newHMACKey(k.ivKey)
	return k, nil
}

// hmacKey is an HMAC-SHA256 key scheduled once: the SHA-256 states after
// the key's inner and outer pads are absorbed, marshalled to plain bytes so
// that Zeroize can wipe them. Every MAC under the key resumes from them;
// hmac.New would hash both pads again for every cell.
type hmacKey struct{ inner, outer []byte }

func newHMACKey(key []byte) hmacKey {
	var pad [sha256.BlockSize]byte
	defer Zeroize(pad[:])
	state := func(b byte) []byte {
		for i := range pad {
			pad[i] = b
			if i < len(key) {
				pad[i] ^= key[i]
			}
		}
		h := sha256.New()
		h.Write(pad[:])
		st, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic("aecrypto: sha256 state does not marshal: " + err.Error())
		}
		return st
	}
	return hmacKey{inner: state(0x36), outer: state(0x5c)}
}

// resume starts one MAC computation under the key in h, a SHA-256 state
// reused across computations: whatever h held is overwritten. It fails once
// the key has been wiped.
func (k hmacKey) resume(h hash.Hash) (keyedMAC, error) {
	if err := resume(h, k.inner); err != nil {
		return keyedMAC{}, err
	}
	return keyedMAC{h: h, outer: k.outer}, nil
}

// Zeroize wipes the scheduled states.
func (k hmacKey) Zeroize() {
	Zeroize(k.inner)
	Zeroize(k.outer)
}

// keyedMAC is one HMAC-SHA256 computation resumed from an hmacKey.
type keyedMAC struct {
	h     hash.Hash
	outer []byte
}

// Write adds p to the message.
func (m keyedMAC) Write(p []byte) { m.h.Write(p) }

// Sum appends the MAC of the message written so far to b. It finishes the
// computation: call it once. It fails if the key was wiped meanwhile.
func (m keyedMAC) Sum(b []byte) ([]byte, error) {
	n := len(b)
	b = m.h.Sum(b) // the inner hash, where the MAC goes
	if err := resume(m.h, m.outer); err != nil {
		return nil, err
	}
	m.h.Write(b[n:])
	return m.h.Sum(b[:n]), nil
}

// keyedHash marks keyedMAC as a keyed hash for the ivsanity analyzer: its
// Sum over a plaintext is a deterministically derived IV, as hmac.New's is.
func (keyedMAC) keyedHash() {}

// ErrKeyWiped is returned by a CellKey used after Zeroize.
var ErrKeyWiped = errors.New("aecrypto: cell key used after Zeroize")

// resume restores h to a state newHMACKey marshalled; a wiped state does not
// restore.
func resume(h hash.Hash, state []byte) error {
	if h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state) != nil {
		return ErrKeyWiped
	}
	return nil
}

// MustCellKey is NewCellKey for keys known to be well-formed (tests, fixtures).
func MustCellKey(root []byte) *CellKey {
	k, err := NewCellKey(root)
	if err != nil {
		panic(err)
	}
	return k
}

// GenerateKey returns a fresh random 32-byte CEK root.
func GenerateKey() ([]byte, error) {
	k := make([]byte, KeySize)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("aecrypto: generating CEK: %w", err)
	}
	return k, nil
}

// Encrypt seals plaintext under the cell key: the one-cell case of a
// Sealer. For Deterministic the IV is HMAC(ivKey, plaintext) truncated to
// the block size, so equal plaintexts yield identical envelopes; for
// Randomized the IV is drawn from crypto/rand.
func (k *CellKey) Encrypt(plaintext []byte, typ EncryptionType) ([]byte, error) {
	s, err := k.NewSealer()
	if err != nil {
		return nil, err
	}
	defer s.Zeroize()
	return s.Seal(plaintext, typ)
}

// Constant parts of the tagged message.
var (
	versionField    = []byte{versionByte}
	versionFieldLen = []byte{0x01} // length of the version byte field
)

// tag appends to b the authentication tag over version || IV || ciphertext
// || versionByteLength, exactly as the shipped algorithm computes it; body
// is the envelope's IV and ciphertext, which are adjacent. h is the SHA-256
// state to compute it in; whatever it held is overwritten.
func (k *CellKey) tag(h hash.Hash, b, body []byte) ([]byte, error) {
	m, err := k.mac.resume(h)
	if err != nil {
		return nil, err
	}
	m.Write(versionField)
	m.Write(body)
	m.Write(versionFieldLen)
	return m.Sum(b)
}

// Decrypt authenticates and opens an envelope produced by Encrypt: the
// one-cell case of an Opener, returning a plaintext buffer the caller owns.
// The HMAC is verified in constant time before any decryption happens; per
// §2.3 the HMAC is a usability feature that lets clients tell legitimate
// ciphertext from garbage.
func (k *CellKey) Decrypt(envelope []byte) ([]byte, error) {
	o, err := k.NewOpener()
	if err != nil {
		return nil, err
	}
	defer o.Zeroize()
	return o.Open(nil, envelope)
}

// Verify reports whether the envelope is well formed and authenticates under
// the cell key without decrypting it.
func (k *CellKey) Verify(envelope []byte) bool {
	tag, body, ok := splitEnvelope(envelope)
	if !ok {
		return false
	}
	var buf [tagSize]byte
	want, err := k.tag(sha256.New(), buf[:0], body)
	return err == nil && subtle.ConstantTimeCompare(tag, want) == 1
}

// splitEnvelope checks the shape of an envelope — version byte, tag, IV,
// non-empty block-aligned ciphertext — and returns its tag and its body, the
// IV followed by the ciphertext. It is the one shape check every reader of
// an envelope goes through.
func splitEnvelope(envelope []byte) (tag, body []byte, ok bool) {
	if len(envelope) < MinCiphertextSize || envelope[0] != versionByte {
		return nil, nil, false
	}
	ct := envelope[1+tagSize+blockSize:]
	if len(ct)%blockSize != 0 || len(ct) == 0 {
		return nil, nil, false
	}
	return envelope[1 : 1+tagSize], envelope[1+tagSize:], true
}

// WellFormedCiphertext reports whether the bytes have the structure of a
// ciphertext envelope — version byte, tag, IV, non-empty block-aligned
// ciphertext — without authenticating it (no key needed). The engine uses it
// at write time to reject statements whose parameter encryption metadata went
// stale: a plaintext value bound to an encrypted column is never a
// well-formed envelope, so storing it would corrupt the column.
func WellFormedCiphertext(envelope []byte) bool {
	_, _, ok := splitEnvelope(envelope)
	return ok
}

// CiphertextLen reports the envelope size produced for a plaintext of n bytes.
func CiphertextLen(n int) int {
	padded := (n/blockSize + 1) * blockSize
	return 1 + tagSize + blockSize + padded
}

// pkcs7Pad appends PKCS#7 padding to b — 1 to size bytes, each holding the
// pad length — in place when b has the capacity.
func pkcs7Pad(b []byte, size int) []byte {
	n := size - len(b)%size
	for range n {
		b = append(b, byte(n))
	}
	return b
}

// pkcs7Unpad validates and strips PKCS#7 padding in constant time with
// respect to the padding CONTENT: the pad length byte, the range check and
// the filler bytes are all folded into a single mask without branching on
// them, and every malformed padding exits through the same single check
// with the same error. Only the (public) total length influences timing. The HMAC check
// in Open runs first, so this is defense in depth against padding-oracle
// shapes rather than a reachable oracle — but the discipline costs nothing
// and the ctcompare analyzer enforces it uniformly.
func pkcs7Unpad(b []byte, size int) ([]byte, error) {
	if len(b) == 0 || len(b)%size != 0 {
		return nil, ErrInvalidCiphertext
	}
	n := int(b[len(b)-1])
	// good stays 1 only if 1 <= n <= size.
	good := subtle.ConstantTimeLessOrEq(1, n) & subtle.ConstantTimeLessOrEq(n, size)
	// Examine the final block unconditionally (len(b) >= size here). The
	// byte at distance i from the end must equal n exactly when i < n: the
	// mask is all ones there and zero beyond, so bytes outside the claimed
	// pad are ignored without branching on n, and any mismatch inside it
	// leaves a bit set in diff.
	var diff byte
	for i := 0; i < size; i++ {
		inPad := byte((i - n) >> (strconv.IntSize - 1))
		diff |= (b[len(b)-1-i] ^ byte(n)) & inPad
	}
	good &= subtle.ConstantTimeByteEq(diff, 0)
	if good != 1 {
		return nil, ErrInvalidCiphertext
	}
	return b[:len(b)-n], nil
}
