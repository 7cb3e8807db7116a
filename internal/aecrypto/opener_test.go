package aecrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"testing"
)

// referenceDecrypt is the envelope opening spelled out with the standard
// library's one-shot primitives — hmac.New, aes.NewCipher,
// cipher.NewCBCDecrypter — and a plain PKCS#7 check, as an independent
// oracle for Opener.Open.
func referenceDecrypt(k *CellKey, envelope []byte) ([]byte, error) {
	if len(envelope) < MinCiphertextSize || envelope[0] != versionByte {
		return nil, ErrInvalidCiphertext
	}
	tag := envelope[1 : 1+tagSize]
	iv := envelope[1+tagSize : 1+tagSize+blockSize]
	ct := envelope[1+tagSize+blockSize:]
	if len(ct)%blockSize != 0 {
		return nil, ErrInvalidCiphertext
	}
	m := hmac.New(sha256.New, k.macKey)
	m.Write(versionField)
	m.Write(iv)
	m.Write(ct)
	m.Write(versionFieldLen)
	if !hmac.Equal(tag, m.Sum(nil)) {
		return nil, ErrAuthFailed
	}
	block, err := aes.NewCipher(k.encKey)
	if err != nil {
		return nil, err
	}
	padded := make([]byte, len(ct))
	cipher.NewCBCDecrypter(block, iv).CryptBlocks(padded, ct)
	// PKCS#7 the plain way, branching on the pad bytes.
	n := int(padded[len(padded)-1])
	if n == 0 || n > blockSize {
		return nil, ErrInvalidCiphertext
	}
	for _, c := range padded[len(padded)-n:] {
		if int(c) != n {
			return nil, ErrInvalidCiphertext
		}
	}
	return padded[:len(padded)-n], nil
}

// authenticated wraps body — an IV followed by ciphertext blocks — in an
// envelope whose tag is valid under k, whatever the blocks decrypt to.
func authenticated(k *CellKey, body []byte) []byte {
	env := append([]byte{versionByte}, make([]byte, tagSize)...)
	env = append(env, body...)
	if _, err := k.tag(sha256.New(), env[1:1], body); err != nil {
		panic(err)
	}
	return env
}

func TestOpenerMatchesDecrypt(t *testing.T) {
	k := testKey(t)
	o, err := k.NewOpener()
	if err != nil {
		t.Fatal(err)
	}
	var arena []byte
	for n := 0; n <= 4*blockSize; n++ {
		for _, typ := range []EncryptionType{Randomized, Deterministic} {
			pt := bytes.Repeat([]byte{byte(n)}, n)
			env, err := k.Encrypt(pt, typ)
			if err != nil {
				t.Fatal(err)
			}
			got, err := o.Open(arena, env)
			if err != nil || !bytes.Equal(got, pt) {
				t.Fatalf("len %d %v: Open = %x, %v", n, typ, got, err)
			}
			arena = got
			one, err := k.Decrypt(env)
			if err != nil || !bytes.Equal(one, pt) {
				t.Fatalf("len %d %v: Decrypt = %x, %v", n, typ, one, err)
			}
		}
	}
}

// TestOpenGrowthWipesOldArena: an arena too small for the envelope is wiped
// before Open moves to a larger buffer, so the plaintext it held is not left
// behind in storage the caller no longer uses.
func TestOpenGrowthWipesOldArena(t *testing.T) {
	k := testKey(t)
	o, _ := k.NewOpener()
	small, _ := k.Encrypt([]byte("short"), Randomized)
	large, _ := k.Encrypt(bytes.Repeat([]byte("long "), 20), Randomized)
	first, err := o.Open(nil, small)
	if err != nil {
		t.Fatal(err)
	}
	old := first[:cap(first)]
	if _, err := o.Open(first, large); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, make([]byte, len(old))) {
		t.Fatalf("outgrown arena kept %q", old)
	}
}

// TestOpenFailureLeavesNoPlaintext: an envelope that authenticates but
// whose padding is malformed fails with the uniform padding error, and the
// arena it was decrypted into reads all zero afterwards.
func TestOpenFailureLeavesNoPlaintext(t *testing.T) {
	k := testKey(t)
	o, _ := k.NewOpener()
	body := make([]byte, 3*blockSize)
	for tries := 0; ; tries++ {
		if tries == 100 {
			t.Fatal("no random block decrypted to malformed padding")
		}
		rand.Read(body)
		env := authenticated(k, body)
		if _, err := referenceDecrypt(k, env); err == nil {
			continue
		}
		arena := make([]byte, 0, 64)
		if pt, err := o.Open(arena, env); !errors.Is(err, ErrInvalidCiphertext) || pt != nil {
			t.Fatalf("bad padding: %x, %v", pt, err)
		}
		if !bytes.Equal(arena[:cap(arena)], make([]byte, cap(arena))) {
			t.Fatal("failed Open left decrypted bytes in the arena")
		}
		return
	}
}

// TestOpenerAfterKeyZeroize: an opener or sealer made before the cell key is
// wiped stops working with it — the MAC it resumes from is gone.
func TestOpenerAfterKeyZeroize(t *testing.T) {
	k := MustCellKey(bytes.Repeat([]byte{3}, KeySize))
	env, _ := k.Encrypt([]byte("x"), Randomized)
	o, _ := k.NewOpener()
	s, _ := k.NewSealer()
	if _, err := o.Open(nil, env); err != nil {
		t.Fatal(err)
	}
	k.Zeroize()
	if _, err := o.Open(nil, env); !errors.Is(err, ErrKeyWiped) {
		t.Fatalf("Open after CellKey.Zeroize: %v", err)
	}
	for _, typ := range []EncryptionType{Randomized, Deterministic} {
		if _, err := s.Seal([]byte("x"), typ); !errors.Is(err, ErrKeyWiped) {
			t.Fatalf("Seal %v after CellKey.Zeroize: %v", typ, err)
		}
	}
}

// TestOpenerZeroizeRetires: an opener or sealer used after its own Zeroize
// fails instead of working on with a reset MAC state.
func TestOpenerZeroizeRetires(t *testing.T) {
	k := testKey(t)
	env, _ := k.Encrypt([]byte("x"), Randomized)
	o, _ := k.NewOpener()
	o.Zeroize()
	if _, err := o.Open(nil, env); !errors.Is(err, ErrKeyWiped) {
		t.Fatalf("Open after Opener.Zeroize: %v", err)
	}
	s, _ := k.NewSealer()
	s.Zeroize()
	if _, err := s.Seal([]byte("x"), Randomized); !errors.Is(err, ErrKeyWiped) {
		t.Fatalf("Seal after Sealer.Zeroize: %v", err)
	}
	if _, err := k.Decrypt(env); err != nil {
		t.Fatalf("retiring an opener touched the cell key: %v", err)
	}
}

func TestSealerMatchesEncrypt(t *testing.T) {
	k := MustCellKey(fixedRoot)
	s, _ := k.NewSealer()
	for n := 0; n <= 3*blockSize; n++ {
		pt := bytes.Repeat([]byte{0x5a}, n)
		det, err := s.Seal(pt, Deterministic)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := k.Encrypt(pt, Deterministic)
		if !bytes.Equal(det, want) {
			t.Fatalf("len %d: DET Seal differs from Encrypt", n)
		}
		rnd, err := s.Seal(pt, Randomized)
		if err != nil {
			t.Fatal(err)
		}
		if len(rnd) != CiphertextLen(n) {
			t.Fatalf("len %d: envelope of %d bytes", n, len(rnd))
		}
		if got, err := referenceDecrypt(k, rnd); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("len %d: RND Seal opens to %x, %v", n, got, err)
		}
	}
	if _, err := s.Seal([]byte("x"), EncryptionType(9)); err == nil {
		t.Fatal("unknown encryption type sealed")
	}
}

// TestOpenSteadyStateAllocs pins the point of the opener: once its arena
// has grown, opening a cell allocates nothing.
func TestOpenSteadyStateAllocs(t *testing.T) {
	k := testKey(t)
	o, _ := k.NewOpener()
	env, _ := k.Encrypt(make([]byte, 64), Randomized)
	arena, err := o.Open(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := o.Open(arena, env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Open allocates %.1f times per cell", n)
	}
}

// FuzzOpen: for arbitrary bytes — taken as an envelope as they are, and,
// wrapped with a valid tag, as an authenticated IV and ciphertext that
// decrypt to arbitrary padding — Open on an opener and arena reused across
// inputs agrees with the standard-library oracle and with the one-shot
// Decrypt: the same plaintext or the same error, and an envelope
// WellFormedCiphertext rejects never gets past the shape check. Whatever an
// input did, the next Open of a known envelope still returns its plaintext.
func FuzzOpen(f *testing.F) {
	k := MustCellKey(fixedRoot)
	known := []byte("known plaintext")
	knownEnv, _ := k.Encrypt(known, Randomized)
	f.Add(knownEnv, false)
	det, _ := k.Encrypt([]byte("Seattle"), Deterministic)
	f.Add(det, false)
	f.Add(det[1+tagSize:], true)
	f.Add(make([]byte, 2*blockSize), true)
	f.Add([]byte{versionByte}, false)
	o, err := k.NewOpener()
	if err != nil {
		f.Fatal(err)
	}
	var arena []byte
	f.Fuzz(func(t *testing.T, data []byte, sign bool) {
		env := data
		if sign && len(data) >= 2*blockSize && len(data)%blockSize == 0 {
			env = authenticated(k, data)
		}
		want, wantErr := referenceDecrypt(k, env)
		got, err := o.Open(arena, env)
		if err != wantErr || !bytes.Equal(got, want) {
			t.Fatalf("Open = %x, %v; oracle = %x, %v", got, err, want, wantErr)
		}
		if !WellFormedCiphertext(env) && err != ErrInvalidCiphertext {
			t.Fatalf("malformed envelope opened with %v", err)
		}
		if err == nil {
			arena = got
		}
		one, oneErr := k.Decrypt(env)
		if oneErr != wantErr || !bytes.Equal(one, want) {
			t.Fatalf("Decrypt = %x, %v; oracle = %x, %v", one, oneErr, want, wantErr)
		}
		next, err := o.Open(arena, knownEnv)
		if err != nil || subtle.ConstantTimeCompare(next, known) != 1 {
			t.Fatalf("Open after that input = %q, %v", next, err)
		}
		arena = next
	})
}

func BenchmarkOpen(b *testing.B) {
	root, _ := GenerateKey()
	k := MustCellKey(root)
	pt := make([]byte, 64)
	rand.Read(pt)
	ct, _ := k.Encrypt(pt, Randomized)
	o, err := k.NewOpener()
	if err != nil {
		b.Fatal(err)
	}
	arena, _ := o.Open(nil, ct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if arena, err = o.Open(arena, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeal(b *testing.B) {
	root, _ := GenerateKey()
	k := MustCellKey(root)
	pt := make([]byte, 64)
	rand.Read(pt)
	s, err := k.NewSealer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(pt, Randomized); err != nil {
			b.Fatal(err)
		}
	}
}
