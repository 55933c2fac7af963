package ocr_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/earnings"
	"repro/internal/ocr"
	"repro/internal/randx"
)

// TestRowCodeMatchesReferenceOnProofs runs both matchers over the proof
// screenshots the earnings stage parses: every platform and currency,
// summary-only and detailed, across 240 seeds.
func TestRowCodeMatchesReferenceOnProofs(t *testing.T) {
	platforms := []earnings.Platform{earnings.PlatformPayPal, earnings.PlatformAGC,
		earnings.PlatformBitcoin, earnings.PlatformSkrill, earnings.PlatformCash, earnings.PlatformUnknown}
	currencies := []earnings.Currency{earnings.USD, earnings.GBP, earnings.EUR, earnings.BTC}
	for seed := uint64(0); seed < 240; seed++ {
		rng := randx.New(seed)
		p := earnings.Proof{
			Platform: randx.Pick(rng, platforms),
			Currency: randx.Pick(rng, currencies),
			Total:    float64(rng.Intn(500000)) / 100,
			Date:     time.Date(2010+rng.Intn(9), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
		}
		for n := rng.Intn(5); n > 0; n-- {
			p.Transactions = append(p.Transactions, earnings.Transaction{
				Amount:   float64(rng.Intn(50000)) / 100,
				Currency: p.Currency,
				Date:     p.Date.AddDate(0, 0, -rng.Intn(60)),
			})
		}
		im := earnings.RenderProofImage(seed, p)
		got, want := ocr.Recognize(im), ocr.ReferenceRecognize(im)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("proof seed %d: Recognize = %+v, reference = %+v", seed, got, want)
		}
		if got.Words < 2 {
			t.Fatalf("proof seed %d recognised %d words; the check needs text", seed, got.Words)
		}
	}
}
