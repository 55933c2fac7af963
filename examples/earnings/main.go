// Earnings: the §5 financial analysis — locate proof-of-earnings
// images, OCR them into structured proofs, convert historical
// currencies to USD, and chart the platform shift from PayPal to
// Amazon Gift Cards.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/earnings"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/urlx"
)

func main() {
	study := core.NewStudy(core.Options{
		Synth: synth.Config{Seed: 55, Scale: 0.04},
	})
	defer study.Close()

	ew := study.SelectEWhoring()
	// The earnings path needs a hosting whitelist but not the
	// classifier.
	res, err := study.AnalyzeEarnings(context.Background(), ew, urlx.DefaultWhitelist())
	if err != nil {
		log.Fatal(err)
	}

	s := res.Summary
	fmt.Println("=== §5 Financial profits ===")
	fmt.Printf("earnings threads: %d; image links: %d; downloaded: %d\n",
		res.ThreadsMatched, res.URLs, res.Downloaded)
	fmt.Printf("filtered as indecent: %d; not proofs: %d; proofs: %d\n",
		res.FilteredNSFV, res.NotProofs, s.Proofs)
	fmt.Printf("total reported: $%.0f by %d actors (mean $%.0f)\n",
		s.TotalUSD, s.Actors, s.MeanPerActorUSD)
	fmt.Printf("mean transaction: $%.2f (paper: $41.90)\n", s.MeanTransactionUSD)
	fmt.Printf("platforms: AGC=%d PayPal=%d BTC=%d Skrill=%d\n",
		s.ByPlatform[earnings.PlatformAGC], s.ByPlatform[earnings.PlatformPayPal],
		s.ByPlatform[earnings.PlatformBitcoin], s.ByPlatform[earnings.PlatformSkrill])

	fmt.Println("\nper-actor earnings CDF (Figure 2):")
	for _, p := range stats.NewECDF(res.PerActorUSD).Series(8) {
		fmt.Printf("  <= $%-9.0f %5.1f%% of actors\n", p.X, p.Pct)
	}

	fmt.Println("\nplatform shift by year (Figure 3):")
	agcByYear := map[int]int{}
	ppByYear := map[int]int{}
	if first, last, ok := res.MonthlyAGC.Span(); ok {
		for _, mc := range res.MonthlyAGC.Dense(first, last) {
			agcByYear[mc.Month.Year] += mc.Count
		}
		_ = last
	}
	if first, last, ok := res.MonthlyPayPal.Span(); ok {
		for _, mc := range res.MonthlyPayPal.Dense(first, last) {
			ppByYear[mc.Month.Year] += mc.Count
		}
	}
	for y := 2010; y <= 2019; y++ {
		if agcByYear[y]+ppByYear[y] == 0 {
			continue
		}
		fmt.Printf("  %d: AGC=%-4d PayPal=%-4d\n", y, agcByYear[y], ppByYear[y])
	}
}
