package earnings

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/imagex"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func TestRateToUSD(t *testing.T) {
	if RateToUSD(USD, date(2015, 1, 1)) != 1 {
		t.Fatal("USD rate != 1")
	}
	// GBP drops after the 2016 referendum.
	before := RateToUSD(GBP, date(2016, 1, 10))
	after := RateToUSD(GBP, date(2016, 9, 10))
	if after >= before {
		t.Fatalf("GBP rate %v -> %v; expected post-referendum drop", before, after)
	}
	// Bitcoin's late-2017 peak.
	peak := RateToUSD(BTC, date(2017, 12, 10))
	early := RateToUSD(BTC, date(2013, 6, 1))
	late := RateToUSD(BTC, date(2018, 6, 1))
	if peak <= early || peak <= late {
		t.Fatalf("BTC peak %v not above %v and %v", peak, early, late)
	}
	if RateToUSD(Currency("XYZ"), date(2015, 1, 1)) != 1 {
		t.Fatal("unknown currency rate != 1")
	}
}

func TestTransactionUSD(t *testing.T) {
	tx := Transaction{Amount: 100, Currency: GBP, Date: date(2015, 3, 1)}
	want := 100 * RateToUSD(GBP, date(2015, 3, 1))
	if got := tx.USD(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("USD = %v want %v", got, want)
	}
}

func TestProofTotalUSD(t *testing.T) {
	// Summary-only proof converts at proof date.
	p := Proof{Total: 50, Currency: EUR, Date: date(2012, 5, 1)}
	want := 50 * RateToUSD(EUR, date(2012, 5, 1))
	if got := p.TotalUSD(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("summary TotalUSD = %v want %v", got, want)
	}
	// Detailed proof converts per transaction date.
	p.Transactions = []Transaction{
		{Amount: 10, Currency: EUR, Date: date(2012, 5, 1)},
		{Amount: 20, Currency: EUR, Date: date(2016, 5, 1)},
	}
	want = 10*RateToUSD(EUR, date(2012, 5, 1)) + 20*RateToUSD(EUR, date(2016, 5, 1))
	if got := p.TotalUSD(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("detailed TotalUSD = %v want %v", got, want)
	}
}

func roundtripProof(t *testing.T, p Proof) Proof {
	t.Helper()
	im := RenderProofImage(42, p)
	got, err := AnnotateImage(im, p.Date)
	if err != nil {
		t.Fatalf("AnnotateImage: %v", err)
	}
	return got
}

func TestProofImageRoundtrip(t *testing.T) {
	p := Proof{
		Platform: PlatformPayPal,
		Currency: USD,
		Total:    774.25,
		Date:     date(2017, 3, 10),
		Transactions: []Transaction{
			{Amount: 41.9, Currency: USD, Date: date(2017, 2, 14)},
			{Amount: 200, Currency: USD, Date: date(2017, 3, 1)},
		},
	}
	got := roundtripProof(t, p)
	if got.Platform != PlatformPayPal {
		t.Errorf("platform %v", got.Platform)
	}
	if math.Abs(got.Total-774.25) > 1e-9 {
		t.Errorf("total %v", got.Total)
	}
	if len(got.Transactions) != 2 {
		t.Fatalf("transactions %d", len(got.Transactions))
	}
	if math.Abs(got.Transactions[0].Amount-41.9) > 1e-9 {
		t.Errorf("tx amount %v", got.Transactions[0].Amount)
	}
	if !got.Transactions[1].Date.Equal(date(2017, 3, 1)) {
		t.Errorf("tx date %v", got.Transactions[1].Date)
	}
}

func TestProofRoundtripAllPlatforms(t *testing.T) {
	for _, platform := range []Platform{PlatformPayPal, PlatformAGC, PlatformBitcoin, PlatformSkrill, PlatformCash} {
		p := Proof{Platform: platform, Currency: GBP, Total: 120.5, Date: date(2016, 6, 1)}
		got := roundtripProof(t, p)
		if got.Platform != platform {
			t.Errorf("platform %v parsed as %v", platform, got.Platform)
		}
		if got.Currency != GBP {
			t.Errorf("currency parsed as %v", got.Currency)
		}
	}
}

func TestAnnotateRejectsNonProofs(t *testing.T) {
	chat := imagex.GenScreenshot(1, []string{"HEY BABE", "WANNA SEE MORE", "SEND FIRST"}, 160, 40)
	if _, err := AnnotateImage(chat, date(2016, 1, 1)); !errors.Is(err, ErrNotProof) {
		t.Fatalf("chat screenshot parsed as proof: %v", err)
	}
	banner := imagex.GenErrorBanner(1, "IMAGE REMOVED", 160, 40)
	if _, err := AnnotateImage(banner, date(2016, 1, 1)); !errors.Is(err, ErrNotProof) {
		t.Fatalf("error banner parsed as proof: %v", err)
	}
	model := imagex.GenModel(1, 0, imagex.PoseNude, 48)
	if _, err := AnnotateImage(model, date(2016, 1, 1)); !errors.Is(err, ErrNotProof) {
		t.Fatalf("model photo parsed as proof: %v", err)
	}
}

func TestParseProofTextEdgeCases(t *testing.T) {
	if _, err := ParseProofText("", date(2016, 1, 1)); err == nil {
		t.Error("empty text accepted")
	}
	// Total with unsupported currency code is skipped → not a proof.
	if _, err := ParseProofText("PAYPAL DASHBOARD\nTOTAL: 10.00 JPY", date(2016, 1, 1)); err == nil {
		t.Error("unsupported currency accepted")
	}
	// Malformed TX lines are skipped but the proof still parses.
	p, err := ParseProofText("PAYPAL DASHBOARD\nTOTAL: 10.00 USD\nTX: garbage ON junk", date(2016, 1, 1))
	if err != nil || len(p.Transactions) != 0 {
		t.Errorf("malformed TX handling: %v %v", p.Transactions, err)
	}
}

func TestAggregateByActor(t *testing.T) {
	proofs := []Proof{
		{Actor: 1, Platform: PlatformPayPal, Currency: USD, Total: 100, Date: date(2016, 1, 1)},
		{Actor: 1, Platform: PlatformPayPal, Currency: USD, Total: 50, Date: date(2016, 2, 1)},
		{Actor: 2, Platform: PlatformAGC, Currency: USD, Total: 10, Date: date(2016, 1, 1)},
	}
	agg := AggregateByActor(proofs)
	if len(agg) != 2 {
		t.Fatalf("actors = %d", len(agg))
	}
	if agg[0].Actor != 1 || agg[0].Proofs != 2 || math.Abs(agg[0].TotalUSD-150) > 1e-9 {
		t.Fatalf("agg[0] = %+v", agg[0])
	}
}

func TestSummarize(t *testing.T) {
	proofs := []Proof{
		{Actor: 1, Platform: PlatformPayPal, Currency: USD, Total: 100, Date: date(2016, 1, 1),
			Transactions: []Transaction{
				{Amount: 60, Currency: USD, Date: date(2016, 1, 1)},
				{Amount: 40, Currency: USD, Date: date(2016, 1, 2)},
			}},
		{Actor: 2, Platform: PlatformAGC, Currency: USD, Total: 20, Date: date(2016, 1, 1)},
	}
	s := Summarize(proofs)
	if s.Proofs != 2 || s.Actors != 2 || s.Detailed != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.TotalUSD-120) > 1e-9 {
		t.Errorf("TotalUSD = %v", s.TotalUSD)
	}
	if math.Abs(s.MeanPerActorUSD-60) > 1e-9 {
		t.Errorf("MeanPerActorUSD = %v", s.MeanPerActorUSD)
	}
	if math.Abs(s.MeanTransactionUSD-50) > 1e-9 {
		t.Errorf("MeanTransactionUSD = %v", s.MeanTransactionUSD)
	}
	if s.ByPlatform[PlatformPayPal] != 1 || s.ByPlatform[PlatformAGC] != 1 {
		t.Errorf("ByPlatform = %v", s.ByPlatform)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Proofs != 0 || s.MeanPerActorUSD != 0 || s.MeanTransactionUSD != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestParseExchangeHeading(t *testing.T) {
	cases := []struct {
		heading    string
		have, want ExchangeKind
		ok         bool
	}{
		{"[H] PayPal [W] BTC", ExPayPal, ExBTC, true},
		{"[h] amazon gift card [w] paypal", ExAGC, ExPayPal, true},
		{"[W] BTC [H] AGC", ExAGC, ExBTC, true},
		{"[H] 50$ Skrill [W] bitcoin", ExOther, ExBTC, true},
		{"[H] PP balance", ExPayPal, ExUnknown, true},
		{"selling my pack cheap", ExUnknown, ExUnknown, false},
	}
	for _, c := range cases {
		got, ok := ParseExchangeHeading(c.heading)
		if ok != c.ok || got.Have != c.have || got.Want != c.want {
			t.Errorf("ParseExchangeHeading(%q) = %+v %v, want %v/%v %v",
				c.heading, got, ok, c.have, c.want, c.ok)
		}
	}
}

func TestTallyExchange(t *testing.T) {
	tbl := TallyExchange([]string{
		"[H] PayPal [W] BTC",
		"[H] AGC [W] BTC",
		"[H] AGC [W] PayPal",
		"random thread",
	})
	if tbl.Total != 4 {
		t.Fatalf("Total = %d", tbl.Total)
	}
	if tbl.Offered[ExAGC] != 2 || tbl.Wanted[ExBTC] != 2 || tbl.Offered[ExUnknown] != 1 {
		t.Fatalf("table = %+v", tbl)
	}
}
