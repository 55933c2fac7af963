// Package report renders the study's tables and figures as plain
// text, with the same rows and series the paper prints. cmd/ewpipeline
// and the benchmark harness both use it.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/actors"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/earnings"
	"repro/internal/stats"
	"repro/internal/urlx"
)

// table renders rows of cells with padded columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	line(header)
	total := len(header)*2 - 2
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

// Table1 renders the per-forum eWhoring overview.
func Table1(rows []core.ForumOverviewRow) string {
	out := make([][]string, 0, len(rows)+1)
	tThreads, tPosts, tTOPs, tActors := 0, 0, 0, 0
	for _, r := range rows {
		out = append(out, []string{
			r.Forum,
			fmt.Sprint(r.Threads),
			fmt.Sprint(r.Posts),
			r.FirstPost.Format("01/06"),
			fmt.Sprint(r.TOPs),
			fmt.Sprint(r.Actors),
		})
		tThreads += r.Threads
		tPosts += r.Posts
		tTOPs += r.TOPs
		tActors += r.Actors
	}
	out = append(out, []string{"TOTAL", fmt.Sprint(tThreads), fmt.Sprint(tPosts), "",
		fmt.Sprint(tTOPs), fmt.Sprint(tActors)})
	return "Table 1: eWhoring-related conversations per forum\n" +
		table([]string{"Forum", "#Threads", "#Posts", "First post", "#TOPs", "#Actors"}, out)
}

// Classifier renders the §4.1 evaluation block.
func Classifier(c core.ClassifierResult) string {
	m := c.Metrics
	return fmt.Sprintf(`Classifier (§4.1): annotated=%d (TOPs %d)
precision=%.2f recall=%.2f F1=%.2f  (paper: 0.92 / 0.93 / 0.92)
extracted TOPs=%d  ML=%d heuristics=%d both=%d  (paper: 4137 / 3456 / 2676 / 1995)
`, c.Annotated, c.TOPsInAnno, m.Precision(), m.Recall(), m.F1(),
		len(c.Extract.TOPs), c.Extract.MLCount, c.Extract.HeurCount, c.Extract.BothCount)
}

// LinkTable renders Table 3 or Table 4.
func LinkTable(title string, counts []urlx.DomainCount) string {
	rows := make([][]string, 0, len(counts)+1)
	total := 0
	for _, c := range counts {
		rows = append(rows, []string{c.Domain, fmt.Sprint(c.Count)})
		total += c.Count
	}
	rows = append(rows, []string{"Total", fmt.Sprint(total)})
	return title + "\n" + table([]string{"Site", "#Links"}, rows)
}

// Crawl renders the §4.2 crawl summary, appending the per-host
// degradation ledger when the crawl lost tasks to dead or exhausted
// hosts. Healthy crawls render byte-identically to the pre-faultx era
// (the golden reports pin that).
func Crawl(res *core.Results) string {
	st := res.CrawlStats
	out := fmt.Sprintf(`Crawl (§4.2): tasks=%d [%s]
preview images=%d  packs=%d  pack images=%d  unique=%d  duplicates=%d
TOPs with links=%d/%d (%.1f%%)  snowball added %d domains
`, st.Tasks, strings.Join(st.OutcomeCounts(), " "),
		st.PreviewImages, st.PacksFetched, st.PackImages, st.UniqueImages, st.DuplicateCount,
		res.Links.ThreadsWithLinks, len(res.Classifier.Extract.TOPs),
		100*float64(res.Links.ThreadsWithLinks)/float64(max(1, len(res.Classifier.Extract.TOPs))),
		res.Links.SnowballAdded)
	out += degradation("crawl", st.Coverage)
	out += degradation("earnings crawl", res.Earnings.CrawlCoverage)
	return out
}

// degradation renders one crawl's coverage ledger — only when it is
// actually degraded, so healthy reports are untouched.
func degradation(which string, cov crawler.Coverage) string {
	if !cov.Degraded {
		return ""
	}
	out := fmt.Sprintf("DEGRADED %s: %d tasks lost to exhausted hosts", which, cov.Errors)
	if len(cov.DeadHosts) > 0 {
		out += fmt.Sprintf("; dead hosts: %s", strings.Join(cov.DeadHosts, ", "))
	}
	out += "\n"
	for _, h := range cov.Hosts {
		if h.Errors == 0 {
			continue
		}
		out += fmt.Sprintf("  %s: %d/%d errored (ok=%d not_found=%d)\n",
			h.Host, h.Errors, h.Tasks, h.OK, h.NotFound)
	}
	return out
}

// PhotoDNA renders the §4.3 hashlist-filter summary.
func PhotoDNA(res *core.Results) string {
	s := res.PhotoDNA
	var sev, reg, site []string
	for k, v := range s.BySeverity {
		sev = append(sev, fmt.Sprintf("%s=%d", k, v))
	}
	for k, v := range s.ByRegion {
		reg = append(reg, fmt.Sprintf("%s=%d", k, v))
	}
	for k, v := range s.BySiteType {
		site = append(site, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(sev)
	sort.Strings(reg)
	sort.Strings(site)
	return fmt.Sprintf(`PhotoDNA filter (§4.3): matches=%d (paper: 36), actioned URLs=%d (paper: 61)
severity: %s
hosting:  %s
sites:    %s
`, s.Matches, s.ActionableURLs, strings.Join(sev, " "), strings.Join(reg, " "), strings.Join(site, " "))
}

// NSFV renders the §4.4 split.
func NSFV(res *core.Results) string {
	n := res.NSFV
	total := len(n.Previews) + len(n.SFV)
	return fmt.Sprintf(`NSFV classification (§4.4): image-site downloads=%d
NSFV previews=%d (%.1f%%; paper: 3496/5788 = 60.4%%)  SFV=%d  pack images=%d
`, total, len(n.Previews), 100*float64(len(n.Previews))/float64(max(1, total)),
		len(n.SFV), len(n.PackImages))
}

// Table5 renders the reverse-image-search results.
func Table5(p core.ProvenanceResult) string {
	row := func(r core.ReverseRow) []string {
		return []string{
			r.Corpus,
			fmt.Sprint(r.Total),
			fmt.Sprintf("%d (%.0f%%)", r.Matched, 100*float64(r.Matched)/float64(max(1, r.Total))),
			fmt.Sprintf("%d (%.1f%%)", r.SeenBefore, 100*float64(r.SeenBefore)/float64(max(1, r.Total))),
			fmt.Sprintf("%.1f", r.AvgMatches),
			fmt.Sprint(r.MaxMatches),
		}
	}
	return "Table 5: reverse image search (paper: packs 74%/55.5%/12.7/642; previews 49%/39.0%/17.3/1969)\n" +
		table([]string{"Corpus", "Total", "Matches", "Seen Before", "Ratio", "Max"},
			[][]string{row(p.Packs), row(p.Previews)}) +
		fmt.Sprintf("zero-match packs: %d (paper: 203 of 1255)\n", p.ZeroMatch)
}

// Table6 renders one classifier's domain-category panel.
func Table6(res *core.Results) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("Table 6: categories of %d matched domains (top 85%% per classifier)\n",
		len(res.Provenance.Domains)))
	names := make([]string, 0, len(res.Provenance.Table6))
	for name := range res.Provenance.Table6 {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := res.Provenance.Table6[name]
		out := make([][]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, []string{r.Tag, fmt.Sprint(r.Domains), fmt.Sprintf("%.2f", r.CumPct)})
		}
		sb.WriteString("\n[" + name + "]\n")
		sb.WriteString(table([]string{"Category", "#Domains", "Distrib. (%)"}, out))
	}
	return sb.String()
}

// Figure2 renders the earnings CDFs as text series.
func Figure2(e core.EarningsResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 2: cumulative frequencies of earnings and proof counts per actor\n")
	sb.WriteString("[earnings USD]\n")
	for _, p := range stats.NewECDF(e.PerActorUSD).Series(10) {
		sb.WriteString(fmt.Sprintf("  $%-10.2f %5.1f%%\n", p.X, p.Pct))
	}
	sb.WriteString("[proof images]\n")
	for _, p := range stats.NewECDF(e.PerActorProofs).Series(10) {
		sb.WriteString(fmt.Sprintf("  %-10.0f %5.1f%%\n", p.X, p.Pct))
	}
	return sb.String()
}

// Figure3 renders the AGC-vs-PayPal monthly series.
func Figure3(e core.EarningsResult) string {
	first1, last1, ok1 := e.MonthlyAGC.Span()
	first2, last2, ok2 := e.MonthlyPayPal.Span()
	if !ok1 && !ok2 {
		return "Figure 3: no proof series\n"
	}
	first, last := first1, last1
	if !ok1 || (ok2 && first2.Before(first)) {
		first = first2
	}
	if !ok1 || (ok2 && last.Before(last2)) {
		last = last2
	}
	var sb strings.Builder
	sb.WriteString("Figure 3: proof-of-earnings per month (AGC vs PayPal)\n")
	sb.WriteString("Month    AGC  PayPal\n")
	for _, mc := range e.MonthlyAGC.Dense(first, last) {
		pp := e.MonthlyPayPal.Count(mc.Month)
		if mc.Count == 0 && pp == 0 {
			continue
		}
		sb.WriteString(fmt.Sprintf("%-7s  %3d  %3d\n", mc.Month, mc.Count, pp))
	}
	return sb.String()
}

// EarningsSummary renders the §5.2 headline numbers.
func EarningsSummary(e core.EarningsResult) string {
	s := e.Summary
	return fmt.Sprintf(`Earnings (§5): threads=%d urls=%d downloaded=%d nsfv-filtered=%d not-proofs=%d
proofs=%d by %d actors  total=$%.0f  mean/actor=$%.0f (paper: $511k / $774)
detailed=%d  mean transaction=$%.2f (paper: $41.90)
platforms: AGC=%d PayPal=%d BTC=%d (paper: 934 / 795 / 35)
`, e.ThreadsMatched, e.URLs, e.Downloaded, e.FilteredNSFV, e.NotProofs,
		s.Proofs, s.Actors, s.TotalUSD, s.MeanPerActorUSD,
		s.Detailed, s.MeanTransactionUSD,
		s.ByPlatform[earnings.PlatformAGC], s.ByPlatform[earnings.PlatformPayPal],
		s.ByPlatform[earnings.PlatformBitcoin])
}

// Table7 renders the currency-exchange table.
func Table7(t earnings.ExchangeTable) string {
	kinds := []earnings.ExchangeKind{earnings.ExPayPal, earnings.ExBTC, earnings.ExAGC, earnings.ExUnknown, earnings.ExOther}
	rows := [][]string{
		{"Offered"}, {"Wanted"},
	}
	header := []string{"Currency"}
	for _, k := range kinds {
		header = append(header, string(k))
		rows[0] = append(rows[0], fmt.Sprint(t.Offered[k]))
		rows[1] = append(rows[1], fmt.Sprint(t.Wanted[k]))
	}
	header = append(header, "Total")
	rows[0] = append(rows[0], fmt.Sprint(t.Total))
	rows[1] = append(rows[1], fmt.Sprint(t.Total))
	return "Table 7: Currency Exchange threads by heavy eWhoring actors\n" +
		table(header, rows)
}

// Table8 renders the actor-bucket overview.
func Table8(rows []actors.BucketRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf(">= %d", r.MinPosts),
			fmt.Sprint(r.Actors),
			fmt.Sprintf("%.1f", r.AvgPosts),
			fmt.Sprintf("%.1f", r.PctEwhoring),
			fmt.Sprintf("%.1f", r.AvgDaysBefore),
			fmt.Sprintf("%.1f", r.AvgDaysAfter),
		})
	}
	return "Table 8: actors by eWhoring post count\n" +
		table([]string{"#Posts", "#Actors", "Avg posts", "%ewhor.", "Before", "After"}, out)
}

// Figure4 renders the per-bucket CDF quantiles.
func Figure4(fig map[int]actors.Samples) string {
	var sb strings.Builder
	sb.WriteString("Figure 4: actor CDF quantiles by bucket (median / p90)\n")
	thrs := make([]int, 0, len(fig))
	for thr := range fig {
		thrs = append(thrs, thr)
	}
	sort.Ints(thrs)
	sb.WriteString("bucket   posts(med/p90)   %ew(med/p90)   before(med/p90)   after(med/p90)\n")
	for _, thr := range thrs {
		s := fig[thr]
		if len(s.Posts) == 0 {
			continue
		}
		q := func(xs []float64, p float64) float64 { return stats.Quantile(xs, p) }
		sb.WriteString(fmt.Sprintf(">=%-5d  %6.0f/%-8.0f  %5.1f/%-7.1f  %7.0f/%-8.0f  %7.0f/%-8.0f\n",
			thr,
			q(s.Posts, 0.5), q(s.Posts, 0.9),
			q(s.Pct, 0.5), q(s.Pct, 0.9),
			q(s.DaysBefore, 0.5), q(s.DaysBefore, 0.9),
			q(s.DaysAfter, 0.5), q(s.DaysAfter, 0.9)))
	}
	return sb.String()
}

// Table9 renders the key-actor intersection matrix.
func Table9(inter map[actors.Group]map[actors.Group]int) string {
	header := []string{""}
	for _, g := range actors.Groups {
		header = append(header, string(g))
	}
	var rows [][]string
	for i, g := range actors.Groups {
		row := []string{string(g)}
		for j, h := range actors.Groups {
			if j < i {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprint(inter[g][h]))
			}
		}
		rows = append(rows, row)
	}
	return "Table 9: key actors selected by more than one indicator (diagonal = unique)\n" +
		table(header, rows)
}

// Table10 renders the key-actor group characteristics.
func Table10(rows []actors.GroupStats) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			string(r.Group),
			fmt.Sprint(r.Members),
			fmt.Sprintf("%.1f", r.AvgPosts),
			fmt.Sprintf("%.1f", r.PctEwhoring),
			fmt.Sprintf("%.1f", r.AvgDaysBefore),
			fmt.Sprintf("%.0f", r.AvgAmountUSD),
			fmt.Sprintf("%.1f", r.AvgH),
			fmt.Sprintf("%.1f", r.AvgI10),
			fmt.Sprintf("%.1f", r.AvgI100),
			fmt.Sprintf("%.1f", r.AvgPacks),
			fmt.Sprintf("%.1f", r.AvgExchange),
		})
	}
	return "Table 10: key-actor group characteristics (means)\n" +
		table([]string{"Group", "N", "#Posts", "%ew", "Days before", "$", "H", "I10", "I100", "#Packs", "#CE"}, out)
}

// Figure5 renders the interest evolution.
func Figure5(fig map[actors.InterestPhase]actors.InterestProfile) string {
	cats := map[string]struct{}{}
	for _, prof := range fig {
		for c := range prof {
			cats[c] = struct{}{}
		}
	}
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	var rows [][]string
	for _, c := range names {
		rows = append(rows, []string{
			c,
			fmt.Sprintf("%.1f", fig[actors.PhaseBefore][c]),
			fmt.Sprintf("%.1f", fig[actors.PhaseDuring][c]),
			fmt.Sprintf("%.1f", fig[actors.PhaseAfter][c]),
		})
	}
	return "Figure 5: key-actor interests before/during/after eWhoring (% of posts)\n" +
		table([]string{"Category", "Before", "During", "After"}, rows)
}

// Section is one renderable unit of the study report: a named table
// or figure, the core artefact whose evaluation fills the Results
// fields it reads, and its renderer. The section list is the bridge
// between report selection ("print table5 and figure2") and artefact
// computation (core.Study.Compute("provenance", "earnings")).
type Section struct {
	// Name is the section's stable identity ("table5", "figure2", ...).
	Name string
	// Artefact is the core artefact node whose evaluation produces
	// everything Render reads (dependency artefacts ride along in a
	// partial Results, so one name per section suffices).
	Artefact string
	// Render renders the section from a Results holding its artefact.
	Render func(*core.Results) string
}

// Sections lists every report section in the paper's layout order.
func Sections() []Section {
	return []Section{
		{"table1", core.ArtefactTable1, func(r *core.Results) string { return Table1(r.Table1) }},
		{"classifier", core.ArtefactClassifier, func(r *core.Results) string { return Classifier(r.Classifier) }},
		{"table3", core.ArtefactLinks, func(r *core.Results) string {
			return LinkTable("Table 3: links per image-sharing site", r.Links.ImageSharing)
		}},
		{"table4", core.ArtefactLinks, func(r *core.Results) string {
			return LinkTable("Table 4: links per cloud-storage service", r.Links.CloudStorage)
		}},
		{"crawl", core.ArtefactCrawl, Crawl},
		{"photodna", core.ArtefactPhotoDNA, PhotoDNA},
		{"nsfv", core.ArtefactNSFV, NSFV},
		{"table5", core.ArtefactProvenance, func(r *core.Results) string { return Table5(r.Provenance) }},
		{"table6", core.ArtefactProvenance, Table6},
		{"earnings", core.ArtefactEarnings, func(r *core.Results) string { return EarningsSummary(r.Earnings) }},
		{"figure2", core.ArtefactEarnings, func(r *core.Results) string { return Figure2(r.Earnings) }},
		{"figure3", core.ArtefactEarnings, func(r *core.Results) string { return Figure3(r.Earnings) }},
		{"table7", core.ArtefactExchange, func(r *core.Results) string { return Table7(r.Table7) }},
		{"table8", core.ArtefactActors, func(r *core.Results) string { return Table8(r.Actors.Table8) }},
		{"figure4", core.ArtefactActors, func(r *core.Results) string { return Figure4(r.Actors.Fig4) }},
		{"table9", core.ArtefactActors, func(r *core.Results) string { return Table9(r.Actors.Table9) }},
		{"table10", core.ArtefactActors, func(r *core.Results) string { return Table10(r.Actors.Table10) }},
		{"figure5", core.ArtefactActors, func(r *core.Results) string { return Figure5(r.Actors.Fig5) }},
	}
}

// Resolve maps requested names to the sections to render (in layout
// order) and the core artefacts to compute. A name may be a section
// name (selecting that section), or a core artefact name / alias
// (selecting every section that artefact produces — "actors" selects
// Tables 8-10 and Figures 4-5). Section names win when a name is
// both. An empty input selects everything; unknown names are errors.
func Resolve(names ...string) (sections []Section, artefacts []string, err error) {
	all := Sections()
	if len(names) == 0 {
		arts, err := core.ResolveArtefacts()
		return all, arts, err
	}
	byName := make(map[string]int, len(all))
	for i, sec := range all {
		byName[sec.Name] = i
	}
	selected := make(map[int]bool)
	var artNames []string
	for _, raw := range names {
		name := strings.ToLower(strings.TrimSpace(raw))
		if i, ok := byName[name]; ok {
			selected[i] = true
			artNames = append(artNames, all[i].Artefact)
			continue
		}
		arts, err := core.ResolveArtefacts(name)
		if err != nil {
			return nil, nil, fmt.Errorf("report: unknown section or artefact %q", raw)
		}
		// An artefact name selects every section it produces.
		for _, a := range arts {
			artNames = append(artNames, a)
			for i, sec := range all {
				if sec.Artefact == a {
					selected[i] = true
				}
			}
		}
	}
	for i, sec := range all {
		if selected[i] {
			sections = append(sections, sec)
		}
	}
	artefacts, err = core.ResolveArtefacts(artNames...)
	return sections, artefacts, err
}

// join renders sections in order, separated by blank lines — the
// layout Full has always used.
func join(res *core.Results, sections []Section) string {
	var sb strings.Builder
	for i, sec := range sections {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(sec.Render(res))
	}
	return sb.String()
}

// Render renders the named sections (see Resolve for what names are
// accepted) from a Results holding their artefacts — the partial-
// report face of Full: a Results from core.Study.Compute prints
// exactly the sections its artefacts support.
func Render(res *core.Results, names ...string) (string, error) {
	sections, _, err := Resolve(names...)
	if err != nil {
		return "", err
	}
	return join(res, sections), nil
}

// Full renders every table and figure of a study run.
func Full(res *core.Results) string {
	return join(res, Sections())
}
