// Actors: the §6 social-network analysis — actor buckets, key-actor
// selection across five criteria, their overlaps, and the
// gaming→market interest shift.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/actors"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/urlx"
)

func main() {
	study := core.NewStudy(core.Options{
		Synth: synth.Config{Seed: 23, Scale: 0.03},
	})
	defer study.Close()
	ctx := context.Background()

	ew := study.SelectEWhoring()
	cls, err := study.TrainAndExtract(ew)
	if err != nil {
		log.Fatal(err)
	}
	earn, err := study.AnalyzeEarnings(ctx, ew, urlx.DefaultWhitelist())
	if err != nil {
		log.Fatal(err)
	}
	res := study.AnalyzeActors(ew, cls.Extract.TOPs, earn.Proofs)

	fmt.Println("=== §6 Actor analysis ===")
	fmt.Println("Table 8 buckets:")
	for _, row := range res.Table8 {
		fmt.Printf("  >=%-5d actors=%-6d avg_posts=%-8.1f %%ew=%-5.1f before=%-6.1f after=%.1f\n",
			row.MinPosts, row.Actors, row.AvgPosts, row.PctEwhoring,
			row.AvgDaysBefore, row.AvgDaysAfter)
	}

	fmt.Printf("\nkey actors: %d across %d groups\n", len(res.Key.All), len(res.Key.Members))
	for _, g := range actors.Groups {
		fmt.Printf("  %-5s %d members\n", g, len(res.Key.Members[g]))
	}

	fmt.Println("\ngroup overlaps (Table 9):")
	for i, g := range actors.Groups {
		for j, h := range actors.Groups {
			if j <= i {
				continue
			}
			if n := res.Table9[g][h]; n > 0 {
				fmt.Printf("  %s ∩ %s = %d\n", g, h, n)
			}
		}
	}

	fmt.Println("\ninterest evolution (Figure 5):")
	for _, phase := range []actors.InterestPhase{actors.PhaseBefore, actors.PhaseDuring, actors.PhaseAfter} {
		prof := res.Fig5[phase]
		fmt.Printf("  %-7s gaming=%-5.1f hacking=%-5.1f market=%-5.1f money=%-5.1f common=%.1f\n",
			phase, prof["Gaming"], prof["Hacking"], prof["Market"], prof["Money"], prof["Common"])
	}
}
