package tds

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/sqltypes"
)

func sampleRequests() []*Request {
	return []*Request{
		{Describe: &DescribeReq{Query: "SELECT a FROM t WHERE b = @b", ClientDHPub: []byte{4, 1, 2}}},
		{Exec: &ExecReq{Query: "INSERT INTO t (a, b) VALUES (@a, @b)",
			Params: map[string][]byte{"b": {0xCC, 0xDD}, "a": sqltypes.Int(1).Encode(), "z": nil},
			Trace:  bytes.Repeat([]byte{7}, 16)}},
		{Exec: &ExecReq{Query: "SELECT 1"}},
		{BulkInsert: &BulkInsertReq{Table: "t", Cols: []string{"a", "b"}, Rows: EncodeCellRows(sampleCellRows())}},
		{InstallCEK: &InstallCEKReq{Name: "CEK1", Nonce: 9, Sealed: []byte("sealed")}},
		{Authorize: &AuthorizeReq{Nonce: 10, Sealed: []byte("auth")}},
		{Ping: &PingReq{}},
	}
}

// sampleResponses pairs each response with the tag of the request it answers.
func sampleResponses() map[byte][]*Response {
	rnd := sqltypes.EncType{Scheme: sqltypes.SchemeRandomized, CEKName: "CEK1", EnclaveEnabled: true}
	desc := &DescribeResp{
		Desc: engine.DescribeResult{
			Query:        "SELECT a FROM t WHERE b = @b",
			Params:       []engine.ParamInfo{{Name: "b", Kind: sqltypes.KindString, Enc: rnd}},
			NeedsEnclave: true,
			EnclaveCEKs:  []string{"CEK1"},
			CEKs: map[string]keys.CEKMetadata{"CEK1": {Name: "CEK1", Values: []keys.CEKValue{
				{CMKName: "CMK1", Algorithm: "RSA_OAEP", EncryptedValue: []byte("ev"), Signature: []byte("sig")}}}},
			CMKs: map[string]keys.CMKMetadata{
				"CMK1": {Name: "CMK1", ProviderName: "VAULT", KeyPath: "https://v/k", EnclaveEnabled: true, Signature: []byte("s")},
				"CMK0": {Name: "CMK0"},
			},
		},
		Attestation: &attestation.Info{
			HealthCert:      attestation.HealthCertificate{HostMeasurement: attestation.Measure([]byte("h")), HostKeyDER: []byte("hk"), Signature: []byte("hs")},
			Report:          attestation.Report{AuthorID: attestation.Measure([]byte("a")), EnclaveVersion: 2, HostVersion: 10, EnclaveDHPub: []byte("dh")},
			ReportSignature: []byte("rs"), EnclaveKeyDER: []byte("ek"), DHSignature: []byte("ds"),
		},
		EnclaveSID: 77,
	}
	result := &engine.ResultSet{
		Columns: []engine.ColumnMeta{{Name: "a", Kind: sqltypes.KindInt}, {Name: "b", Kind: sqltypes.KindString, Enc: rnd}},
		Rows:    [][][]byte{{sqltypes.Int(1).Encode(), {0xCC}}, {nil, {}}},
	}
	return map[byte][]*Response{
		tagDescribe:   {{Describe: desc, LSN: 3}, {Describe: &DescribeResp{}}, {Err: "no such table"}},
		tagExec:       {{Result: result, LSN: 12}, {Result: &engine.ResultSet{Affected: 3}}},
		tagBulkInsert: {{Result: &engine.ResultSet{Affected: 64}}},
		tagInstallCEK: {{}},
		tagAuthorize:  {{Err: "bad nonce"}},
		tagPing:       {{LSN: 99}},
	}
}

func TestRequestResponseRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		body := appendRequest(nil, req)
		got, err := decodeRequest(body)
		if err != nil {
			t.Fatalf("%x: %v", body, err)
		}
		if again := appendRequest(nil, got); !bytes.Equal(again, body) {
			t.Fatalf("request changed in a round trip: %x -> %x", body, again)
		}
	}
	for tag, resps := range sampleResponses() {
		for _, resp := range resps {
			body := appendResponse(nil, tag, resp)
			got, err := decodeResponse(body, tag)
			if err != nil {
				t.Fatalf("tag %d: %v", tag, err)
			}
			if again := appendResponse(nil, tag, got); !bytes.Equal(again, body) {
				t.Fatalf("tag %d response changed in a round trip", tag)
			}
		}
	}
}

// A response that answers another request, lacks its body, or carries a row
// wider than its columns is a protocol error.
func TestDecodeResponseRejectsMismatch(t *testing.T) {
	ok := appendResponse(nil, tagExec, &Response{Result: &engine.ResultSet{Affected: 1}})
	wide := appendResponse(nil, tagExec, &Response{Result: &engine.ResultSet{
		Columns: []engine.ColumnMeta{{Name: "a"}}, Rows: [][][]byte{{{1}, {2}}}}})
	for name, c := range map[string]struct {
		body []byte
		want byte
	}{
		"other kind":      {ok, tagBulkInsert},
		"no result":       {appendResponse(nil, tagExec, &Response{}), tagExec},
		"no describe":     {appendResponse(nil, tagDescribe, &Response{}), tagDescribe},
		"row too wide":    {wide, tagExec},
		"trailing byte":   {append(append([]byte(nil), ok...), 0), tagExec},
		"empty":           {nil, tagPing},
		"ping with body?": {appendResponse(nil, tagPing, &Response{Result: &engine.ResultSet{}}), tagPing},
	} {
		if _, err := decodeResponse(c.body, c.want); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", name, err)
		}
	}
}

// A client that receives a malformed response closes the connection.
func TestProtocolErrorClosesConnection(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		p := NewPeer(server, true)
		if _, err := p.Recv(); err != nil {
			return
		}
		p.Send(appendResponse(p.Message(), tagPing, &Response{}))
	}()
	c := NewConn(client)
	if _, err := c.BulkInsert("t", []string{"a"}, [][][]byte{{{1}}}, [16]byte{}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("bulk insert answered by a ping response: err = %v, want ErrProtocol", err)
	}
	if _, err := c.Ping(); err == nil || errors.Is(err, ErrProtocol) {
		t.Fatalf("round trip after a protocol error: err = %v, want a transport error", err)
	}
}

// checkDecoder holds a decoder to the properties every trust-edge decoder
// shares: no panic, allocation bounded by a small multiple of the input,
// and an accepted input re-encodes to exactly its own bytes.
func checkDecoder(t *testing.T, in []byte, decodeEncode func() ([]byte, error)) {
	t.Helper()
	var out []byte
	var err error
	if n := allocatedBy(func() { out, err = decodeEncode() }); n > 64<<10+32*uint64(len(in)) {
		t.Fatalf("decoding %d bytes allocated %d", len(in), n)
	}
	if err == nil && !bytes.Equal(out, in) {
		t.Fatalf("decode/encode changed the input: %x -> %x", in, out)
	}
}

// FuzzDecodeRequest: the server's decoder for bytes from any client.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(appendRequest(nil, req))
	}
	f.Add([]byte{tagExec, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecoder(t, body, func() ([]byte, error) {
			req, err := decodeRequest(body)
			if err != nil {
				return nil, err
			}
			return appendRequest(nil, req), nil
		})
	})
}

// FuzzDecodeResponse: the client's decoder for bytes from a hostile server.
func FuzzDecodeResponse(f *testing.F) {
	for tag, resps := range sampleResponses() {
		for _, resp := range resps {
			f.Add(appendResponse(nil, tag, resp))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return
		}
		checkDecoder(t, body, func() ([]byte, error) {
			resp, err := decodeResponse(body, body[0])
			if err != nil {
				return nil, err
			}
			return appendResponse(nil, body[0], resp), nil
		})
	})
}
