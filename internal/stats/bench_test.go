package stats

import "testing"

func BenchmarkLogFactorialTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LogFactorial(int64(i % 255))
	}
}

func BenchmarkLogFactorialLgamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = LogFactorial(int64(i%100000) + 256)
	}
}

func BenchmarkBinomialLogPMF(b *testing.B) {
	bin := Binomial{N: 3428, P: 0.048}
	for i := 0; i < b.N; i++ {
		_ = bin.LogPMF(int64(i % 3428))
	}
}

func BenchmarkEntropy(b *testing.B) {
	p := make([]float64, 4096)
	for i := range p {
		p[i] = 1.0 / 4096
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Entropy(p)
	}
}

func BenchmarkKLDivergence(b *testing.B) {
	p := make([]float64, 4096)
	q := make([]float64, 4096)
	for i := range p {
		p[i] = 1.0 / 4096
		q[i] = float64(i%7+1) / (4096 * 4)
	}
	Normalize(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KLDivergence(p, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChiSquareSF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ChiSquareSF(float64(i%50)+0.5, i%10+1)
	}
}

func BenchmarkCategoricalSampler(b *testing.B) {
	w := make([]float64, 1024)
	for i := range w {
		w[i] = float64(i%13) + 1
	}
	s, err := NewCategoricalSampler(NewRNG(1), w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Draw()
	}
}

func BenchmarkMultinomial(b *testing.B) {
	w := make([]float64, 256)
	for i := range w {
		w[i] = float64(i%5) + 1
	}
	rng := NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rng.Multinomial(10000, w); err != nil {
			b.Fatal(err)
		}
	}
}
