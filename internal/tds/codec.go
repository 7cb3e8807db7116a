package tds

import (
	"errors"

	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/wire"
)

// The message codec (DESIGN.md, "Wire format"). A request body is a tag
// byte and that kind's fields in declaration order; the response repeats
// the tag, then carries the LSN watermark, the error text and — only when
// the error is empty — a DescribeResp (Describe) or a ResultSet (Exec,
// BulkInsert). Every value has exactly one encoding; decoded byte slices
// alias the message body.
const (
	tagDescribe byte = iota + 1
	tagExec
	tagBulkInsert
	tagInstallCEK
	tagAuthorize
	tagPing
)

// ErrProtocol reports a message that does not decode — from a server, one
// that does not answer the request that was sent.
var ErrProtocol = errors.New("tds: protocol error")

// appendRequest appends req's body; an empty request appends nothing.
func appendRequest(b []byte, req *Request) []byte {
	switch {
	case req.Describe != nil:
		b = wire.AppendString(append(b, tagDescribe), req.Describe.Query)
		return wire.AppendBytes(b, req.Describe.ClientDHPub)
	case req.Exec != nil:
		b = wire.AppendString(append(b, tagExec), req.Exec.Query)
		b = wire.AppendMap(b, req.Exec.Params, wire.AppendBytes)
		return wire.AppendBytes(b, req.Exec.Trace)
	case req.BulkInsert != nil:
		m := req.BulkInsert
		b = wire.AppendString(append(b, tagBulkInsert), m.Table)
		b = wire.AppendList(b, m.Cols, wire.AppendString)
		b = wire.AppendBytes(b, m.Rows)
		return wire.AppendBytes(b, m.Trace)
	case req.InstallCEK != nil:
		m := req.InstallCEK
		b = wire.AppendString(append(b, tagInstallCEK), m.Name)
		b = wire.AppendU64(b, m.Nonce)
		return wire.AppendBytes(b, m.Sealed)
	case req.Authorize != nil:
		b = wire.AppendU64(append(b, tagAuthorize), req.Authorize.Nonce)
		return wire.AppendBytes(b, req.Authorize.Sealed)
	case req.Ping != nil:
		return append(b, tagPing)
	}
	return b
}

// decodeRequest parses one request body.
func decodeRequest(body []byte) (*Request, error) {
	r := wire.NewReader(body, ErrProtocol)
	req := &Request{}
	switch tag := r.U8(); tag {
	case tagDescribe:
		req.Describe = &DescribeReq{Query: r.String(), ClientDHPub: r.Bytes()}
	case tagExec:
		req.Exec = &ExecReq{Query: r.String(), Params: wire.ReadMap(&r, 8, (*wire.Reader).Bytes), Trace: r.Bytes()}
	case tagBulkInsert:
		req.BulkInsert = &BulkInsertReq{Table: r.String(), Cols: wire.ReadList(&r, 4, (*wire.Reader).String), Rows: r.Bytes(), Trace: r.Bytes()}
	case tagInstallCEK:
		req.InstallCEK = &InstallCEKReq{Name: r.String(), Nonce: r.U64(), Sealed: r.Bytes()}
	case tagAuthorize:
		req.Authorize = &AuthorizeReq{Nonce: r.U64(), Sealed: r.Bytes()}
	case tagPing:
		req.Ping = &PingReq{}
	default:
		r.Fail("request tag %d", tag)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return req, nil
}

// appendResponse appends the body of resp, which answers a request tagged
// tag.
func appendResponse(b []byte, tag byte, resp *Response) []byte {
	b = wire.AppendU64(append(b, tag), resp.LSN)
	b = wire.AppendString(b, resp.Err)
	if len(resp.Err) > 0 { // an error answer carries no body
		return b
	}
	if resp.Describe != nil {
		b = appendDescribe(b, resp.Describe)
	}
	if resp.Result != nil {
		b = appendResult(b, resp.Result)
	}
	return b
}

// decodeResponse parses a response that must answer a request tagged want:
// a different tag, a missing body or a row whose width differs from the
// result's columns is a protocol error.
func decodeResponse(body []byte, want byte) (*Response, error) {
	r := wire.NewReader(body, ErrProtocol)
	if tag := r.U8(); tag != want {
		r.Fail("response tagged %d answers a request tagged %d", tag, want)
	}
	resp := &Response{LSN: r.U64(), Err: r.String()}
	if resp.Err == "" {
		switch want {
		case tagDescribe:
			resp.Describe = readDescribe(&r)
		case tagExec, tagBulkInsert:
			resp.Result = readResult(&r)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return resp, nil
}

func appendResult(b []byte, rs *engine.ResultSet) []byte {
	b = wire.AppendList(b, rs.Columns, func(b []byte, c engine.ColumnMeta) []byte {
		return appendEncType(append(wire.AppendString(b, c.Name), byte(c.Kind)), c.Enc)
	})
	b = appendCellRows(b, rs.Rows)
	return wire.AppendU64(b, uint64(rs.Affected))
}

func readResult(r *wire.Reader) *engine.ResultSet {
	rs := &engine.ResultSet{Columns: wire.ReadList(r, 11, func(r *wire.Reader) engine.ColumnMeta {
		return engine.ColumnMeta{Name: r.String(), Kind: sqltypes.Kind(r.U8()), Enc: readEncType(r)}
	})}
	rs.Rows = readCellRows(r)
	for _, row := range rs.Rows {
		if len(row) != len(rs.Columns) {
			r.Fail("%d-cell row under %d columns", len(row), len(rs.Columns))
			break
		}
	}
	rs.Affected = int(r.U64())
	return rs
}

func appendEncType(b []byte, e sqltypes.EncType) []byte {
	b = wire.AppendBool(append(b, byte(e.Scheme)), e.EnclaveEnabled)
	return wire.AppendString(b, e.CEKName)
}

func readEncType(r *wire.Reader) sqltypes.EncType {
	return sqltypes.EncType{Scheme: sqltypes.EncScheme(r.U8()), EnclaveEnabled: r.Bool(), CEKName: r.String()}
}

func appendDescribe(b []byte, d *DescribeResp) []byte {
	desc := &d.Desc
	b = wire.AppendList(wire.AppendString(b, desc.Query), desc.Params, func(b []byte, p engine.ParamInfo) []byte {
		return appendEncType(append(wire.AppendString(b, p.Name), byte(p.Kind)), p.Enc)
	})
	b = wire.AppendBool(b, desc.NeedsEnclave)
	b = wire.AppendList(b, desc.EnclaveCEKs, wire.AppendString)
	b = wire.AppendMap(b, desc.CEKs, appendCEK)
	b = wire.AppendMap(b, desc.CMKs, appendCMK)
	b = wire.AppendBool(b, d.Attestation != nil)
	if a := d.Attestation; a != nil {
		b = append(b, a.HealthCert.HostMeasurement[:]...)
		b = wire.AppendBytes(wire.AppendBytes(b, a.HealthCert.HostKeyDER), a.HealthCert.Signature)
		b = append(append(b, a.Report.AuthorID[:]...), a.Report.BinaryHash[:]...)
		b = wire.AppendU64(wire.AppendU64(b, uint64(a.Report.EnclaveVersion)), uint64(a.Report.HostVersion))
		b = wire.AppendBytes(append(b, a.Report.EnclaveKeyHash[:]...), a.Report.EnclaveDHPub)
		b = wire.AppendBytes(wire.AppendBytes(b, a.ReportSignature), a.EnclaveKeyDER)
		b = wire.AppendBytes(b, a.DHSignature)
	}
	return wire.AppendU64(b, d.EnclaveSID)
}

func readDescribe(r *wire.Reader) *DescribeResp {
	d := &DescribeResp{}
	desc := &d.Desc
	desc.Query = r.String()
	desc.Params = wire.ReadList(r, 11, func(r *wire.Reader) engine.ParamInfo {
		return engine.ParamInfo{Name: r.String(), Kind: sqltypes.Kind(r.U8()), Enc: readEncType(r)}
	})
	desc.NeedsEnclave = r.Bool()
	desc.EnclaveCEKs = wire.ReadList(r, 4, (*wire.Reader).String)
	desc.CEKs = wire.ReadMap(r, 12, readCEK)
	desc.CMKs = wire.ReadMap(r, 21, readCMK)
	if r.Bool() {
		a := &attestation.Info{}
		readMeasurement(r, &a.HealthCert.HostMeasurement)
		a.HealthCert.HostKeyDER, a.HealthCert.Signature = r.Bytes(), r.Bytes()
		readMeasurement(r, &a.Report.AuthorID)
		readMeasurement(r, &a.Report.BinaryHash)
		a.Report.EnclaveVersion, a.Report.HostVersion = int(r.U64()), int(r.U64())
		readMeasurement(r, &a.Report.EnclaveKeyHash)
		a.Report.EnclaveDHPub = r.Bytes()
		a.ReportSignature, a.EnclaveKeyDER, a.DHSignature = r.Bytes(), r.Bytes(), r.Bytes()
		d.Attestation = a
	}
	d.EnclaveSID = r.U64()
	return d
}

func readMeasurement(r *wire.Reader, m *attestation.Measurement) {
	copy(m[:], r.Take(uint64(len(m))))
}

func appendCEK(b []byte, m keys.CEKMetadata) []byte {
	return wire.AppendList(wire.AppendString(b, m.Name), m.Values, func(b []byte, v keys.CEKValue) []byte {
		b = wire.AppendString(wire.AppendString(b, v.CMKName), v.Algorithm)
		return wire.AppendBytes(wire.AppendBytes(b, v.EncryptedValue), v.Signature)
	})
}

func readCEK(r *wire.Reader) keys.CEKMetadata {
	return keys.CEKMetadata{Name: r.String(), Values: wire.ReadList(r, 16, func(r *wire.Reader) keys.CEKValue {
		return keys.CEKValue{CMKName: r.String(), Algorithm: r.String(), EncryptedValue: r.Bytes(), Signature: r.Bytes()}
	})}
}

func appendCMK(b []byte, m keys.CMKMetadata) []byte {
	b = wire.AppendString(wire.AppendString(wire.AppendString(b, m.Name), m.ProviderName), m.KeyPath)
	return wire.AppendBytes(wire.AppendBool(b, m.EnclaveEnabled), m.Signature)
}

func readCMK(r *wire.Reader) keys.CMKMetadata {
	return keys.CMKMetadata{Name: r.String(), ProviderName: r.String(), KeyPath: r.String(), EnclaveEnabled: r.Bool(), Signature: r.Bytes()}
}

// The cell-rows layout carries bulk-insert payloads and result set rows: a
// u32 row count, then per row a u16 cell count and per cell a u32 length+1
// (0 = absent/NULL cell, so an empty cell stays distinct) and the bytes.

// ErrBadCellRows reports a malformed or truncated cell-rows payload.
var ErrBadCellRows = errors.New("tds: malformed bulk row payload")

// EncodeCellRows flattens a batch of rows into the cell-rows layout.
func EncodeCellRows(rows [][][]byte) []byte {
	size := 4
	for _, row := range rows {
		size += 2
		for _, cell := range row {
			size += 4 + len(cell)
		}
	}
	return appendCellRows(make([]byte, 0, size), rows)
}

func appendCellRows(b []byte, rows [][][]byte) []byte {
	b = wire.AppendU32(b, uint32(len(rows)))
	for _, row := range rows {
		b = wire.AppendU16(b, uint16(len(row)))
		for _, cell := range row {
			if cell == nil {
				b = wire.AppendU32(b, 0)
				continue
			}
			b = append(wire.AppendU32(b, uint32(len(cell))+1), cell...)
		}
	}
	return b
}

// DecodeCellRows parses a whole cell-rows payload. Cells alias it.
func DecodeCellRows(payload []byte) ([][][]byte, error) {
	r := wire.NewReader(payload, ErrBadCellRows)
	rows := readCellRows(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return rows, nil
}

func readCellRows(r *wire.Reader) [][][]byte {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	rows := make([][][]byte, n)
	for i := range rows {
		row := make([][]byte, r.Count16(4))
		for c := range row {
			switch l := r.U32(); l {
			case 0: // absent cell
			case 1:
				row[c] = []byte{}
			default:
				row[c] = r.Take(uint64(l) - 1)
			}
		}
		rows[i] = row
	}
	return rows
}
