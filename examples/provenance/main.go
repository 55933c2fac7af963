// Provenance: the §4 image-provenance pipeline in detail, driven
// manually over live HTTP — select threads, classify TOPs, extract
// and crawl links, gate through PhotoDNA, classify NSFV, and
// reverse-search the survivors to find where pack images come from.
// Each call is the stage method the study's artefact graph runs, so
// the numbers are the ones a full Run reports for the same seed.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/synth"
)

func main() {
	ctx := context.Background()
	study := core.NewStudy(core.Options{
		Synth: synth.Config{Seed: 7, Scale: 0.03},
	})
	defer study.Close()

	ew := study.SelectEWhoring()
	fmt.Printf("selected %d eWhoring threads\n", len(ew))

	cls, err := study.TrainAndExtract(ew)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid classifier: P=%.2f R=%.2f → %d TOPs\n",
		cls.Metrics.Precision(), cls.Metrics.Recall(), len(cls.Extract.TOPs))

	links, _ := study.ExtractLinks(cls.Extract.TOPs)
	fmt.Printf("link extraction: %d whitelisted links from %d TOPs\n",
		len(links.Tasks), links.ThreadsWithLinks)
	fmt.Println("top image-sharing sites:")
	for i, dc := range links.ImageSharing {
		if i == 5 {
			break
		}
		fmt.Printf("  %-20s %d\n", dc.Domain, dc.Count)
	}

	results, err := study.CrawlLinks(ctx, links.Tasks)
	if err != nil {
		log.Fatal(err)
	}
	st := crawler.Summarize(results)
	fmt.Printf("crawl: %v\n", st.OutcomeCounts())
	fmt.Printf("downloaded %d images (%d packs)\n", st.ImagesFetched, st.PacksFetched)

	safe, pdna, err := study.FilterAbuse(ctx, results)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PhotoDNA: %d matches reported and deleted; %s\n", pdna.Matches, pdna.String())

	nsfvRes, err := study.ClassifyNSFV(ctx, safe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NSFV: %d previews, %d safe-for-viewing\n",
		len(nsfvRes.Previews), len(nsfvRes.SFV))

	prov, err := study.Provenance(ctx, nsfvRes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reverse search: packs %d/%d matched (%d seen before posting)\n",
		prov.Packs.Matched, prov.Packs.Total, prov.Packs.SeenBefore)
	fmt.Printf("matched domains: %d; zero-match packs: %d\n",
		len(prov.Domains), prov.ZeroMatch)
	fmt.Println("McAfee's top categories for those domains:")
	for i, row := range prov.Table6["McAfee"] {
		if i == 5 {
			break
		}
		fmt.Printf("  %-24s %4d  (%.1f%% cum.)\n", row.Tag, row.Domains, row.CumPct)
	}
}
