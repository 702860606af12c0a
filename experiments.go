package recordroute

import (
	"fmt"
	"io"
	"net/netip"

	"recordroute/internal/analysis"
	"recordroute/internal/probe"
	"recordroute/internal/study"
)

// responsiveness runs (once) and caches the Table 1 measurement every
// other experiment builds on.
func (in *Internet) responsiveness() *study.Responsiveness {
	if in.resp == nil {
		in.resp = in.st.RunResponsiveness()
	}
	return in.resp
}

// Table1Summary is the machine-readable core of the paper's Table 1.
type Table1Summary struct {
	Probed, PingResponsive, RRResponsive int
	// RRRatioByIP is RR-responsive/ping-responsive over addresses
	// (0.75 published); RRRatioByAS the same over ASes (0.82).
	RRRatioByIP, RRRatioByAS float64
}

// Table1 runs the responsiveness study and renders the paper's Table 1
// to w (pass nil to skip rendering).
func (in *Internet) Table1(w io.Writer) Table1Summary {
	r := in.responsiveness()
	if w != nil {
		r.Render(w)
	}
	total := r.Table.ByIP["Total"]
	return Table1Summary{
		Probed:         total.Probed,
		PingResponsive: total.PingResponsive,
		RRResponsive:   total.RRResponsive,
		RRRatioByIP:    r.RRRatioByIP(),
		RRRatioByAS:    r.RRRatioByAS(),
	}
}

// ReachabilitySummary is the machine-readable core of §3.3 / Figure 1.
type ReachabilitySummary struct {
	// ReachableFrac is the fraction of RR-responsive destinations
	// within nine hops of some VP (0.66 published); Within8Frac within
	// eight (≈0.60 published).
	ReachableFrac, Within8Frac float64
	// AliasReclassified and RRUDPReclassified count the §3.3
	// false-negative recoveries.
	AliasReclassified, RRUDPReclassified int
	// GreedyCoverage[k] is the fraction of RR-reachable destinations
	// covered by the best k+1 M-Lab sites (73%…95% published for
	// 1…10 sites).
	GreedyCoverage []float64
}

// Figure1Reachability runs the §3.3 reachability analysis and renders
// Figure 1 to w.
func (in *Internet) Figure1Reachability(w io.Writer) ReachabilitySummary {
	r := in.responsiveness()
	re := in.st.RunReachability(r)
	if w != nil {
		re.Render(w)
	}
	s := ReachabilitySummary{
		ReachableFrac:     re.ReachableFrac,
		Within8Frac:       re.Within8Frac,
		AliasReclassified: re.AliasReclassified,
		RRUDPReclassified: re.RRUDPReclassified,
	}
	reachable := 0
	for _, d := range re.RRResponsive {
		if re.Stats[d].RRReachable() {
			reachable++
		}
	}
	for _, step := range re.Greedy {
		f := 0.0
		if reachable > 0 {
			f = float64(step.TotalCovered) / float64(reachable)
		}
		s.GreedyCoverage = append(s.GreedyCoverage, f)
	}
	return s
}

// EpochSummary is the machine-readable core of §3.4 / Figure 2.
type EpochSummary struct {
	// Reachable2016 and Reachable2011 are the all-VP RR-reachable
	// fractions (0.66 vs 0.12 published).
	Reachable2016, Reachable2011 float64
	// Common2016 and Common2011 restrict to VPs present in both years.
	Common2016, Common2011 float64
}

// Figure2Epochs builds and measures both epochs (an independent 2011
// Internet is generated from the same seed) and renders Figure 2 to w.
func (in *Internet) Figure2Epochs(w io.Writer) (EpochSummary, error) {
	cfg, _ := buildConfig([]Option{
		WithScale(in.opts.scale), WithSeed(in.opts.seed),
		WithProbeRate(in.opts.rate), WithTimeout(in.opts.timeout),
	})
	ec, err := study.RunEpochComparison(cfg, study.Options{Rate: in.opts.rate, Timeout: in.opts.timeout, Shards: in.opts.shards})
	if err != nil {
		return EpochSummary{}, err
	}
	if w != nil {
		ec.Render(w)
	}
	return EpochSummary{
		Reachable2016: ec.ReachableFrac2016,
		Reachable2011: ec.ReachableFrac2011,
		Common2016:    ec.CommonFrac2016,
		Common2011:    ec.CommonFrac2011,
	}, nil
}

// StampAuditSummary is the machine-readable core of §3.5.
type StampAuditSummary struct {
	// ASesAudited is the number of ASes seen in traceroutes; Always,
	// Sometimes, and Never partition them by whether the corresponding
	// ping-RR also recorded them (7040/143/2 of 7185 published).
	ASesAudited, Always, Sometimes, Never int
	// NeverASNs lists the suspected AS-wide no-stamp networks.
	NeverASNs []int
}

// StampAudit runs the §3.5 traceroute/RR comparison (perVPCap
// destinations per M-Lab VP; 0 for the default) and renders it to w.
func (in *Internet) StampAudit(w io.Writer, perVPCap int) StampAuditSummary {
	r := in.responsiveness()
	sa := in.st.RunStampAudit(r, perVPCap)
	if w != nil {
		sa.Render(w)
	}
	return StampAuditSummary{
		ASesAudited: len(sa.Audit.PerAS),
		Always:      len(sa.Audit.Always),
		Sometimes:   len(sa.Audit.Sometimes),
		Never:       len(sa.Audit.Never),
		NeverASNs:   sa.Audit.Never,
	}
}

// CloudSummary is the machine-readable core of §3.6 / Figure 3.
type CloudSummary struct {
	// Within8 maps each cloud to the fraction of RR-responsive (but not
	// M-Lab-reachable) destinations within eight hops of its border
	// (EC2 40%, Softlayer 45% published).
	Within8 map[string]float64
	// MLabMedianHops and CloudMedianHops compare distances to the
	// RR-reachable set.
	MLabMedianHops  float64
	CloudMedianHops map[string]float64
}

// Figure3Clouds runs the §3.6 cloud-distance analysis (sampleCap
// destinations per set; 0 for the default) and renders Figure 3 to w.
func (in *Internet) Figure3Clouds(w io.Writer, sampleCap int) CloudSummary {
	r := in.responsiveness()
	cr := in.st.RunCloudDistance(r, sampleCap)
	if w != nil {
		cr.Render(w)
	}
	return CloudSummary{
		Within8:         cr.Within8,
		MLabMedianHops:  cr.MLabMedian,
		CloudMedianHops: cr.CloudMedian,
	}
}

// RateLimitSummary is the machine-readable core of §4.1 / Figure 4.
type RateLimitSummary struct {
	// ResponsesAt10 and ResponsesAt100 are per-VP RR response counts at
	// the two probing rates.
	ResponsesAt10, ResponsesAt100 map[string]int
	// DrasticDrop lists VPs losing >25% at 100pps (8 of 79 published).
	DrasticDrop []string
}

// Figure4RateLimit runs the §4.1 rate experiment over sampleCap
// RR-responsive destinations (0 for all) and renders Figure 4 to w.
func (in *Internet) Figure4RateLimit(w io.Writer, sampleCap int) RateLimitSummary {
	r := in.responsiveness()
	rl := in.st.RunRateLimit(r, sampleCap)
	if w != nil {
		rl.Render(w)
	}
	s := RateLimitSummary{
		ResponsesAt10:  make(map[string]int),
		ResponsesAt100: make(map[string]int),
		DrasticDrop:    rl.DrasticDrop,
	}
	for vp, v := range rl.PerVP {
		s.ResponsesAt10[vp] = v.At10
		s.ResponsesAt100[vp] = v.At100
	}
	return s
}

// TTLSummary is the machine-readable core of §4.2 / Figure 5.
type TTLSummary struct {
	// ReachableRate and UnreachableRate map initial TTL to destination
	// response rate for the two populations (sweet spot 10–12
	// published: ~70% vs ~25% at TTL 10).
	ReachableRate, UnreachableRate map[uint8]float64
}

// Figure5TTL runs the §4.2 TTL-tradeoff experiment (perVPCap
// destinations per class per VP; 0 for the default) and renders
// Figure 5 to w.
func (in *Internet) Figure5TTL(w io.Writer, perVPCap int) TTLSummary {
	r := in.responsiveness()
	tr := in.st.RunTTLStudy(r, perVPCap)
	if w != nil {
		tr.Render(w)
	}
	return TTLSummary{ReachableRate: tr.ReachableRate, UnreachableRate: tr.UnreachableRate}
}

// AtlasSummary is the §2 complementarity experiment's summary.
type AtlasSummary struct {
	// Interfaces is the alias-collapsed interface count; Both,
	// TracerouteOnly, and RROnly partition it by provenance; RRReverse
	// counts reverse-path interfaces invisible to forward probing.
	Interfaces, Both, TracerouteOnly, RROnly, RRReverse, Links int
	// AnonymousRROnly counts ground-truth TTL-invisible routers that
	// only RR observed.
	AnonymousRROnly int
}

// TopologyAtlas merges all ping-RR results with traceroutes (perVPCap
// destinations per M-Lab VP; 0 for the default) into an interface-level
// atlas and renders the §2 complementarity summary to w.
func (in *Internet) TopologyAtlas(w io.Writer, perVPCap int) AtlasSummary {
	r := in.responsiveness()
	ar := in.st.RunAtlas(r, perVPCap)
	if w != nil {
		ar.Render(w)
	}
	return AtlasSummary{
		Interfaces:      ar.Stats.Interfaces,
		Both:            ar.Stats.Both,
		TracerouteOnly:  ar.Stats.TracerouteOnly,
		RROnly:          ar.Stats.RROnly,
		RRReverse:       ar.Stats.RRReverse,
		Links:           ar.Stats.Links,
		AnonymousRROnly: ar.AnonymousRROnly,
	}
}

// Classification names a destination's §3.1 class ("unresponsive",
// "ping-responsive", "rr-responsive", "rr-reachable",
// "reverse-measurable") with the best RR slot it occupied.
type Classification struct {
	Class    string
	BestSlot int
	// FalseNegativeSignal marks the §3.3 signature: responses with free
	// RR slots but no destination stamp, worth re-testing via alias
	// resolution or ping-RRudp.
	FalseNegativeSignal bool
}

// ClassifyDestination applies the paper's full per-destination
// methodology to dst: a plain ping and a ping-RR from every vantage
// point, plus a ping-RRudp when the first pass shows the false-negative
// signature, all folded through the §3.1 decision rules.
func (in *Internet) ClassifyDestination(dst netip.Addr) Classification {
	var results []probe.Result
	collect := func(kind probe.Kind) {
		for _, vp := range in.platformVPs() {
			vp.Prober.StartOne(probe.Spec{Dst: dst, Kind: kind}, in.opts.timeout, func(r probe.Result) {
				results = append(results, r)
			})
		}
		in.st.Camp.Run()
	}
	collect(probe.Ping)
	collect(probe.PingRR)
	v := analysis.Classify(dst, results, nil)
	if v.FalseNegativeSignal && v.BestSlot == 0 {
		collect(probe.PingRRUDP)
		v = analysis.Classify(dst, results, nil)
	}
	return Classification{Class: v.Class.String(), BestSlot: v.BestSlot, FalseNegativeSignal: v.FalseNegativeSignal}
}

// RawPingRRResults exposes the per-VP ping-RR results of the cached
// responsiveness run, for archiving with internal/results (the paper
// released its raw datasets the same way).
func (in *Internet) RawPingRRResults() map[string][]probe.Result {
	return in.responsiveness().PerVP
}

// SourceRouteSummary is the historical-contrast summary.
type SourceRouteSummary struct {
	// Probed counts (VP, destination) pairs tried with both primitives;
	// RRRate and LSRRRate are the per-primitive response rates — the
	// 2005-report-vs-this-paper contrast.
	Probed           int
	RRRate, LSRRRate float64
}

// SourceRouteCheck probes the same targets with ping-RR and
// loose-source-routed pings (perVPCap per VP; 0 for the default) and
// renders the contrast to w.
func (in *Internet) SourceRouteCheck(w io.Writer, perVPCap int) SourceRouteSummary {
	r := in.responsiveness()
	sr := in.st.RunSourceRouteCheck(r, perVPCap)
	if w != nil {
		sr.Render(w)
	}
	return SourceRouteSummary{Probed: sr.Probed, RRRate: sr.RRRate(), LSRRRate: sr.LSRRRate()}
}

// DoubletreeSummary is the probe-budget experiment's machine-readable
// core: what Doubletree's shared stop sets saved over naive
// exhaustive traceroutes of the same (VP, destination) pairs.
type DoubletreeSummary struct {
	VPs, Dests, Rounds int
	// NaiveProbes and DTProbes are the two arms' probe budgets;
	// SavedFrac is 1 - DT/naive.
	NaiveProbes, DTProbes int
	SavedFrac             float64
	// StopSetEntries counts the final merged global set's
	// (iface, dst-prefix) entries.
	StopSetEntries int
	// Coverage is the fraction of naive-discovered interfaces
	// Doubletree also discovered.
	Coverage float64
}

// Doubletree runs the Doubletree-vs-naive probe-budget experiment
// (destCap destinations, 0 for the full hitlist; rounds <= 0 means 4)
// and renders the comparison to w.
func (in *Internet) Doubletree(w io.Writer, destCap, rounds int) DoubletreeSummary {
	dr := in.st.RunDoubletree(destCap, rounds)
	if w != nil {
		dr.Render(w)
	}
	return DoubletreeSummary{
		VPs: dr.VPs, Dests: dr.Dests, Rounds: dr.Rounds,
		NaiveProbes: dr.Naive.Probes, DTProbes: dr.DT.Probes,
		SavedFrac:      dr.SavedFrac(),
		StopSetEntries: dr.StopSetLen,
		Coverage:       dr.Coverage(),
	}
}

// RRvsTRSummary is the RR-vs-traceroute path-agreement summary.
type RRvsTRSummary struct {
	// Pairs counts (VP, destination) pairs with both an RR stamp list
	// and a traceroute.
	Pairs int
	// RouterOverlapMedian is the median fraction of RR stamps the
	// traceroute also saw; ASExactFrac and ASAgreeMean score AS-level
	// path agreement over the RR window.
	RouterOverlapMedian float64
	ASExactFrac         float64
	ASAgreeMean         float64
}

// RRvsTraceroute compares each M-Lab VP's ping-RR stamps against
// exhaustive traceroutes of the same destinations (perVPCap per VP; 0
// for the default) and renders the agreement analysis to w.
func (in *Internet) RRvsTraceroute(w io.Writer, perVPCap int) RRvsTRSummary {
	r := in.responsiveness()
	cr := in.st.RunRRvsTR(r, perVPCap)
	if w != nil {
		cr.Render(w)
	}
	return RRvsTRSummary{
		Pairs:               cr.Pairs,
		RouterOverlapMedian: cr.RouterOverlap.Median,
		ASExactFrac:         cr.ASExactFrac,
		ASAgreeMean:         cr.ASAgreeMean,
	}
}

// VPResponseSummary is the §3.2 distribution headline.
type VPResponseSummary struct {
	// AboveTwoThirds is the share of RR-responsive destinations
	// answering more than 2/3 of the VPs (~0.80 published for >90/141).
	AboveTwoThirds float64
}

// VPResponseDistribution computes the §3.2 distribution.
func (in *Internet) VPResponseDistribution() VPResponseSummary {
	return VPResponseSummary{AboveTwoThirds: in.responsiveness().VPResponseDist().AboveTwoThirds}
}

// ChaosScenario pairs a label with the fault profile to sweep in
// ChaosReport.
type ChaosScenario struct {
	Label  string
	Faults FaultProfile
}

// ChaosLevelSummary is one sweep level's machine-readable core.
type ChaosLevelSummary struct {
	Label string
	// SingleShotReachable and RetryReachable are the RR-reachable
	// counts of the degradation and recovery arms.
	SingleShotReachable, RetryReachable int
	// Lost counts baseline-reachable destinations the single-shot arm
	// misclassified under faults; Recovered how many retries plus the
	// §3.3 rescue pipeline won back.
	Lost, Recovered int
}

// ChaosSummary is the machine-readable core of the chaos experiment.
type ChaosSummary struct {
	// BaselineReachable is the fault-free RR-reachable count.
	BaselineReachable int
	// Retries is the recovery arm's retransmission budget.
	Retries int
	Levels  []ChaosLevelSummary
	// Snapshots holds each arm's metrics capture, keyed "baseline",
	// "<label>/single-shot", "<label>/retry". Arms rebuild their
	// Internet from the same seeds, so snapshots reproduce with the
	// sweep.
	Snapshots map[string]*MetricsSnapshot `json:",omitempty"`
}

// ChaosReport runs the fault-injection experiment: each scenario (or
// the default loss/outage sweep when none are given) is measured twice
// on a freshly built faulted Internet — single-shot, then with retries
// and adaptive timeouts — and compared against the fault-free
// baseline. retries <= 0 uses the default budget of 2. The sweep is a
// pure function of the seed, so reports are byte-reproducible.
func (in *Internet) ChaosReport(w io.Writer, retries int, scenarios ...ChaosScenario) (ChaosSummary, error) {
	cfg, _ := buildConfig([]Option{
		WithScale(in.opts.scale), WithSeed(in.opts.seed),
		WithProbeRate(in.opts.rate), WithTimeout(in.opts.timeout),
	})
	var levels []study.ChaosLevel
	for _, sc := range scenarios {
		levels = append(levels, study.ChaosLevel{Label: sc.Label, Faults: *sc.Faults.faultConfig(cfg.Seed)})
	}
	ch, err := study.RunChaos(cfg, study.Options{
		Rate: in.opts.rate, Timeout: in.opts.timeout,
		Shards: in.opts.shards, Retries: retries,
	}, levels)
	if err != nil {
		return ChaosSummary{}, err
	}
	if w != nil {
		ch.Render(w)
	}
	s := ChaosSummary{BaselineReachable: ch.Baseline.RRReachable, Retries: ch.Retries,
		Snapshots: ch.Snapshots}
	for _, st := range ch.Steps {
		s.Levels = append(s.Levels, ChaosLevelSummary{
			Label:               st.Label,
			SingleShotReachable: st.NoRetry.RRReachable,
			RetryReachable:      st.Retry.RRReachable,
			Lost:                st.Lost,
			Recovered:           st.Recovered,
		})
	}
	return s, nil
}

// EpochsLiveSummary is the machine-readable core of the epochs-live
// recurring-campaign experiment.
type EpochsLiveSummary struct {
	// Epochs is the number of consecutive fault epochs measured;
	// Baseline is epoch 0's RR-reachable count.
	Epochs, Baseline int
	// Gained and Lost total the reachability deltas across all
	// consecutive-epoch diffs — the churn the time series observed.
	Gained, Lost int
}

// EpochsLive measures the same Internet across consecutive fault
// epochs under long-horizon route churn — the single-process twin of a
// recurring rrstudyd Schedule. The world is built once; each epoch
// probes a fresh clone with that epoch's derived shuffle seed and churn
// clock, and the per-epoch RR-reachable sets diff into a
// gained/lost/stable time series rendered to w. Without WithFaults a
// default churn-only fault plan is installed. epochs <= 0 runs 3.
func (in *Internet) EpochsLive(w io.Writer, epochs int) (EpochsLiveSummary, error) {
	el, err := study.RunEpochsLive(in.st.Topo.Cfg, study.Options{
		Rate: in.opts.rate, Timeout: in.opts.timeout, Shards: in.opts.shards,
		Retries: in.opts.retries, Adaptive: in.opts.retries > 0,
	}, epochs)
	if err != nil {
		return EpochsLiveSummary{}, err
	}
	if w != nil {
		el.Render(w)
	}
	s := EpochsLiveSummary{Epochs: el.Epochs}
	if recs := el.Index.Epochs(); len(recs) > 0 {
		s.Baseline = len(recs[0].Reachable)
	}
	for _, d := range el.Index.Diffs() {
		s.Gained += len(d.Gained)
		s.Lost += len(d.Lost)
	}
	return s, nil
}

// InstalledFaults describes the fault plan WithFaults installed on
// this Internet ("links=… lossy=… …"); all zeros without WithFaults.
func (in *Internet) InstalledFaults() string { return in.st.Topo.Faults.String() }

// Report bundles every experiment's machine-readable summary, the
// paper-vs-measured record a reproduction run leaves behind.
type Report struct {
	Table1       Table1Summary
	VPResponse   VPResponseSummary
	Reachability ReachabilitySummary
	Epochs       EpochSummary
	StampAudit   StampAuditSummary
	Clouds       CloudSummary
	RateLimit    RateLimitSummary
	TTL          TTLSummary
	Atlas        AtlasSummary
	SourceRoute  SourceRouteSummary
}

// Experiment is one entry of the paper-order `all` run.
type Experiment struct {
	// Name is the experiment's file stem under rrstudy -outdir
	// ("table1", "figure1", ...).
	Name string
	// Run renders the experiment to w (nil suppresses rendering) and
	// stores its summary in rep.
	Run func(in *Internet, w io.Writer, rep *Report) error
}

// AllExperiments lists the nine experiments RunAll runs, in paper
// order, with the default sample caps.
func AllExperiments() []Experiment {
	return []Experiment{
		{"table1", func(in *Internet, w io.Writer, rep *Report) error {
			rep.Table1 = in.Table1(w)
			rep.VPResponse = in.VPResponseDistribution()
			return nil
		}},
		{"figure1", func(in *Internet, w io.Writer, rep *Report) error {
			rep.Reachability = in.Figure1Reachability(w)
			return nil
		}},
		{"figure2", func(in *Internet, w io.Writer, rep *Report) (err error) {
			rep.Epochs, err = in.Figure2Epochs(w)
			return err
		}},
		{"audit", func(in *Internet, w io.Writer, rep *Report) error {
			rep.StampAudit = in.StampAudit(w, 0)
			return nil
		}},
		{"figure3", func(in *Internet, w io.Writer, rep *Report) error {
			rep.Clouds = in.Figure3Clouds(w, 0)
			return nil
		}},
		{"figure4", func(in *Internet, w io.Writer, rep *Report) error {
			rep.RateLimit = in.Figure4RateLimit(w, 1000)
			return nil
		}},
		{"figure5", func(in *Internet, w io.Writer, rep *Report) error {
			rep.TTL = in.Figure5TTL(w, 0)
			return nil
		}},
		{"atlas", func(in *Internet, w io.Writer, rep *Report) error {
			rep.Atlas = in.TopologyAtlas(w, 0)
			return nil
		}},
		{"lsrr", func(in *Internet, w io.Writer, rep *Report) error {
			rep.SourceRoute = in.SourceRouteCheck(w, 0)
			return nil
		}},
	}
}

// RunAll executes every experiment of AllExperiments in order, rendering
// each to w (nil suppresses rendering) and returning the combined
// report. It stops at the first experiment that fails or leaves a
// campaign shard dead (ShardErrors), since later renders would rest on
// partial results.
func (in *Internet) RunAll(w io.Writer) (Report, error) {
	var rep Report
	for i, ex := range AllExperiments() {
		if i > 0 {
			nl(w)
		}
		if err := ex.Run(in, w, &rep); err != nil {
			return rep, err
		}
		if err := in.ShardErrors(); err != nil {
			return rep, fmt.Errorf("%s: %w", ex.Name, err)
		}
	}
	return rep, nil
}

func nl(w io.Writer) {
	if w != nil {
		io.WriteString(w, "\n")
	}
}
