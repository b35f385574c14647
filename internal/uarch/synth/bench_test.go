package synth

import (
	"context"
	"testing"

	"diestack/internal/uarch"
)

func BenchmarkGenerateProfile(b *testing.B) {
	p, _ := ByName("specfp")
	for i := 0; i < b.N; i++ {
		prog := p.Generate(1, 100_000)
		if len(prog) != 100_000 {
			b.Fatal("bad length")
		}
	}
	b.ReportMetric(100_000, "insts/op")
}

func BenchmarkRunSuite(b *testing.B) {
	cfg := uarch.PlanarConfig()
	for i := 0; i < b.N; i++ {
		if _, err := RunSuite(context.Background(), cfg, 1, 20_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	cfg := uarch.PlanarConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := Table4(context.Background(), cfg, 1, 50_000); err != nil {
			b.Fatal(err)
		}
	}
}
