package aecrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash"
)

// Opener opens many envelopes under one CellKey: the cells one enclave
// crossing, one conversion call or one result set decrypts. It holds what
// opening a cell would otherwise set up per cell — the AES key schedule, and
// one SHA-256 state that every MAC resumes from the key's scheduled HMAC
// states — so a cell costs its MAC and its CBC blocks and allocates nothing.
//
// Go gives no way to wipe an AES key schedule, so every Opener leaves one on
// the heap for the garbage collector. Its lifetime must therefore be one
// crossing or one call, never longer: callers make an Opener where the
// crossing begins, Zeroize it where the crossing ends, and never park it in
// a long-lived structure. An Opener is not safe for concurrent use.
type Opener struct{ schedule }

// schedule is what an Opener or a Sealer holds for its cell key: the AES
// key schedule, a SHA-256 state its MACs resume into, and room for a sum.
type schedule struct {
	key   *CellKey
	block cipher.Block
	h     hash.Hash
	sum   [tagSize]byte
}

func (k *CellKey) schedule() (schedule, error) {
	block, err := aes.NewCipher(k.encKey)
	if err != nil {
		return schedule{}, err
	}
	return schedule{key: k, block: block, h: sha256.New()}, nil
}

// Zeroize wipes the MAC state and retires the opener or sealer: a later
// Open or Seal fails with ErrKeyWiped, and the key schedule is left to the
// garbage collector. It does not touch the CellKey.
func (s *schedule) Zeroize() {
	s.h.Reset()
	Zeroize(s.sum[:])
	s.key, s.block = nil, nil
}

// NewOpener schedules the cell key for opening envelopes.
func (k *CellKey) NewOpener() (*Opener, error) {
	s, err := k.schedule()
	if err != nil {
		return nil, err
	}
	return &Opener{s}, nil
}

// Open authenticates an envelope produced by Encrypt or Seal and decrypts it
// into dst, the caller's plaintext arena, returning the plaintext: a prefix
// of dst's storage, or — when dst is too small for the envelope — of a
// larger buffer that replaces it, in which case dst's storage is wiped
// first. What dst held is overwritten; dst must not overlap envelope.
//
// The checks run in a fixed order: the envelope's shape, then the HMAC,
// compared in constant time before any decryption, then the PKCS#7 padding,
// validated in constant time. On any failure Open returns nil and leaves no
// plaintext behind in the storage it decrypted into.
func (o *Opener) Open(dst, envelope []byte) ([]byte, error) {
	if o.key == nil {
		return nil, ErrKeyWiped
	}
	tag, body, ok := splitEnvelope(envelope)
	if !ok {
		return nil, ErrInvalidCiphertext
	}
	want, err := o.key.tag(o.h, o.sum[:0], body)
	if err != nil {
		return nil, err
	}
	if subtle.ConstantTimeCompare(tag, want) != 1 {
		return nil, ErrAuthFailed
	}
	iv, ct := body[:blockSize], body[blockSize:]
	if cap(dst) < len(ct) {
		Zeroize(dst[:cap(dst)])
		dst = make([]byte, len(ct))
	}
	padded := dst[:len(ct)]
	prev := iv
	for i := 0; i < len(ct); i += blockSize {
		o.block.Decrypt(padded[i:i+blockSize], ct[i:i+blockSize])
		xorBlock(padded[i:i+blockSize], prev)
		prev = ct[i : i+blockSize]
	}
	pt, err := pkcs7Unpad(padded, blockSize)
	if err != nil {
		Zeroize(padded)
		return nil, err
	}
	return pt, nil
}

// xorBlock XORs the AES block src into dst as two 64-bit words: at one
// block, subtle.XORBytes's length checks and dispatch cost more than the
// XOR itself.
func xorBlock(dst, src []byte) {
	binary.NativeEndian.PutUint64(dst, binary.NativeEndian.Uint64(dst)^binary.NativeEndian.Uint64(src))
	binary.NativeEndian.PutUint64(dst[8:], binary.NativeEndian.Uint64(dst[8:])^binary.NativeEndian.Uint64(src[8:]))
}

// Sealer seals many cells under one CellKey — the cells of one bulk insert
// or one conversion call — with one AES key schedule and one SHA-256 state
// for its MACs and deterministic IVs. Its lifetime rules are an Opener's.
type Sealer struct{ schedule }

// NewSealer schedules the cell key for sealing cells.
func (k *CellKey) NewSealer() (*Sealer, error) {
	s, err := k.schedule()
	if err != nil {
		return nil, err
	}
	return &Sealer{s}, nil
}

// Seal encrypts plaintext into a new envelope. For Deterministic the IV is
// HMAC(ivKey, plaintext) truncated to the block size, so equal plaintexts
// yield identical envelopes; for Randomized the IV is drawn from
// crypto/rand. IV generation and consumption live in this one function so
// the IV's provenance is locally provable (enforced by the ivsanity
// analyzer).
func (s *Sealer) Seal(plaintext []byte, typ EncryptionType) ([]byte, error) {
	if s.key == nil {
		return nil, ErrKeyWiped
	}
	const head = 1 + tagSize + blockSize
	out := make([]byte, head, CiphertextLen(len(plaintext)))
	iv := out[1+tagSize : head]
	switch typ {
	case Deterministic:
		m, err := s.key.iv.resume(s.h)
		if err != nil {
			return nil, err
		}
		m.Write(plaintext)
		sum, err := m.Sum(s.sum[:0])
		if err != nil {
			return nil, err
		}
		copy(iv, sum)
	case Randomized:
		if _, err := rand.Read(iv); err != nil {
			return nil, fmt.Errorf("aecrypto: generating IV: %w", err)
		}
	default:
		return nil, fmt.Errorf("aecrypto: unknown encryption type %d", typ)
	}
	ct := pkcs7Pad(append(out[head:], plaintext...), blockSize)
	cipher.NewCBCEncrypter(s.block, iv).CryptBlocks(ct, ct)
	out = out[:cap(out)]
	out[0] = versionByte
	if _, err := s.key.tag(s.h, out[1:1], out[1+tagSize:]); err != nil {
		return nil, err
	}
	return out, nil
}
