package leakage

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"alwaysencrypted/internal/core"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
)

// TestTraceExportCarriesNoPlaintext taps the trace export channel the way
// the §2.6 strong adversary would: tracing is an always-on observability
// feed leaving the host, so its serialized bytes must reveal only timings,
// counts and statement kinds. The test plants distinctive secrets in an
// encrypted column, runs traced statements over them (including enclave
// predicate evaluation, so crossing spans fire), then scans the full v1
// export for the plaintext, its SQL encodings, the query text, and any
// identifier from the schema — and pins span names and attribute keys to
// an allowlist so a future span can't quietly widen the channel.
func TestTraceExportCarriesNoPlaintext(t *testing.T) {
	srv, err := core.StartServer(core.ServerConfig{
		EnclaveThreads: 2,
		Trace:          &trace.Policy{SampleRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	admin := core.NewKeyAdmin(srv)
	if err := admin.CreateMasterKey("TapCMK", true); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateColumnKey("TapCEK", "TapCMK"); err != nil {
		t.Fatal(err)
	}
	db, err := srv.Connect(core.ClientConfig{AlwaysEncrypted: true, Providers: admin.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Distinctive secrets: a string no honest span would contain, and an
	// integer whose decimal and binary encodings we can scan for.
	const secretStr = "OMEGA-CLEARANCE-77131-ZK"
	const secretInt = int64(777888999)

	if _, err := db.Exec(`CREATE TABLE Tap(id int PRIMARY KEY,
		ssn varchar ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TapCEK,
			ENCRYPTION_TYPE = Randomized,
			ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'),
		balance int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TapCEK,
			ENCRYPTION_TYPE = Randomized,
			ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil); err != nil {
		t.Fatal(err)
	}
	// An enclave-ordered index on a secret column: index maintenance and the
	// seek below cross into the enclave under enclave.crossing spans opened
	// by the engine, which must be as mute as the evaluator's.
	if _, err := db.Exec("CREATE INDEX Tap_balance ON Tap (balance)", nil); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 8; i++ {
		if _, err := db.Exec("INSERT INTO Tap (id, ssn, balance) VALUES (@id, @s, @b)",
			map[string]core.Value{
				"id": core.Int(i),
				"s":  core.Str(secretStr),
				"b":  core.Int(secretInt),
			}); err != nil {
			t.Fatal(err)
		}
	}
	// Enclave-routed predicates over both secret columns: these produce
	// enclave.crossing spans carrying rows-per-crossing and opcode tallies —
	// the spans closest to the plaintext.
	if _, err := db.Exec("SELECT * FROM Tap WHERE ssn = @s",
		map[string]core.Value{"s": core.Str(secretStr)}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Exec("SELECT * FROM Tap WHERE balance = @b",
		map[string]core.Value{"b": core.Int(secretInt)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Values) != 8 {
		t.Fatalf("query returned %d rows, want 8", len(rows.Values))
	}

	traces := srv.Traces().Snapshot()
	if len(traces) < 9 {
		t.Fatalf("trace store holds %d traces, want at least 9 (8 inserts + selects)", len(traces))
	}
	doc := trace.Export(traces)
	if err := trace.ValidateExport(&doc); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	// The tap: serialized export bytes must not contain the secrets in any
	// form the adversary could recognize — raw text, SQL type encodings, the
	// query text, or schema identifiers.
	contraband := [][]byte{
		[]byte(secretStr),
		sqltypes.Str(secretStr).Encode(),
		[]byte("777888999"),
		sqltypes.Int(secretInt).Encode(),
		[]byte("SELECT"), []byte("INSERT"), []byte("WHERE"),
		[]byte("Tap"), []byte("ssn"), []byte("balance"), []byte("TapCEK"),
	}
	for _, c := range contraband {
		if bytes.Contains(raw, c) {
			t.Fatalf("trace export contains %q:\n%s", c, raw)
		}
	}

	// Pin the vocabulary: every span name and attribute key must be on the
	// allowlist. A new span that smuggles data through its name or key shows
	// up here as an unknown token, not as a silent leak.
	spanNames := map[string]bool{
		"lex": true, "parse": true, "bind": true, "plan": true, "exec": true,
		"wal.append": true, "wal.commit": true,
		"enclave.crossing": true, "redo.apply": true,
	}
	sawCrossing := false
	for _, et := range doc.Traces {
		for _, sp := range et.Spans {
			if !spanNames[sp.Name] {
				t.Fatalf("span name %q not on the export allowlist", sp.Name)
			}
			if sp.Name == "enclave.crossing" {
				sawCrossing = true
				if sp.Attrs["rows"] <= 0 {
					t.Fatalf("crossing span missing rows attr: %+v", sp)
				}
			}
			for k := range sp.Attrs {
				if k != "rows" && k != "records" && k != "bufpool.miss_stall_ns" && !strings.HasPrefix(k, "op.") {
					t.Fatalf("attr key %q not on the export allowlist", k)
				}
			}
		}
	}
	if !sawCrossing {
		t.Fatal("no enclave.crossing span captured — the tap never saw the enclave path")
	}
}
