package tpcc

import "testing"

// BenchmarkWorldLoadBulk measures the world load end to end (driver encode →
// TDS multi-row message → one WAL record per structure).
func BenchmarkWorldLoadBulk(b *testing.B) {
	scale := DefaultScale()
	scale.Warehouses = 4
	b.ReportAllocs()
	var rows int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := NewWorld(WorldOptions{Mode: ModePlaintext, Scale: scale, EnclaveThreads: 1, CTR: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := w.Load(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rows = w.RowsLoaded()
		w.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
