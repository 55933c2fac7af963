// Command ewsynth generates the synthetic CrimeBB-like world and
// prints its corpus statistics, for inspecting what the study runs on.
//
// Usage:
//
//	ewsynth [-seed N] [-scale F] [-workers N] [-noimages]
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"repro/internal/synth"
)

func main() {
	seed := flag.Uint64("seed", 2019, "world seed")
	scale := flag.Float64("scale", 0.1, "corpus scale (1.0 ≈ paper scale)")
	workers := flag.Int("workers", 0, "generation workers (0 = GOMAXPROCS, 1 = sequential)")
	noImages := flag.Bool("noimages", false, "skip the image world")
	flag.Parse()

	cfg := synth.Config{Seed: *seed, Scale: *scale, SkipImages: *noImages, Workers: *workers}
	start := time.Now()
	w := synth.Generate(cfg)
	elapsed := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("generated in %v (workers=%d, heap %d MiB, peak sys %d MiB)\n\n",
		elapsed.Round(time.Millisecond), cfg.EffectiveWorkers(),
		ms.HeapAlloc>>20, ms.Sys>>20)

	fmt.Printf("forums:  %d\n", w.Store.NumForums())
	fmt.Printf("boards:  %d\n", w.Store.NumBoards())
	fmt.Printf("threads: %d\n", w.Store.NumThreads())
	fmt.Printf("posts:   %d\n", w.Store.NumPosts())
	fmt.Printf("actors:  %d\n", w.Store.NumActors())
	if first, last, ok := w.Store.Span(); ok {
		fmt.Printf("span:    %s .. %s\n", first.Format("2006-01"), last.Format("2006-01"))
	}
	fmt.Println()
	fmt.Println("eWhoring ground truth per forum:")
	for _, f := range w.Store.Forums() {
		tops := 0
		for _, tid := range w.EWhoring[f.ID] {
			if tr := w.Truth[tid]; tr != nil && tr.Kind == synth.KindTOP {
				tops++
			}
		}
		fmt.Printf("  %-16s threads=%-6d TOPs=%d\n", f.Name, len(w.EWhoring[f.ID]), tops)
	}
	fmt.Println()
	fmt.Printf("models: %d (flagged TOPs: %d)\n", len(w.Models), w.NumFlaggedTOPs)
	fmt.Printf("reverse index: %d records; wayback: %d URLs; domains: %d\n",
		w.Reverse.Len(), w.Wayback.NumURLs(), w.Directory.Len())
	fmt.Printf("hashlist entries: %d\n", w.HashList.Len())
	fmt.Printf("proof links: %d; preview links: %d; pack links: %d\n",
		len(w.Proofs), w.NumPreviewLinks, w.NumPackLinks)
}
