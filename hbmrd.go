// Package hbmrd is the public API of the HBM2 read-disturbance study
// reproduction: six simulated HBM2 chips calibrated to the paper's
// measurements, a DRAM-Bender-style test platform, the undocumented TRR
// mechanism, and the full characterization suite that regenerates every
// table and figure of the paper's evaluation.
//
// Quick start:
//
//	chip, _ := hbmrd.NewChip(0, hbmrd.WithIdentityMapping())
//	ch, _ := chip.Channel(0)
//	ch.FillRow(0, 0, 999, 0xAA)  // aggressor
//	ch.FillRow(0, 0, 1000, 0x55) // victim
//	ch.FillRow(0, 0, 1001, 0xAA) // aggressor
//	ch.HammerDoubleSided(0, 0, 999, 1001, 300_000, 0)
//	buf := make([]byte, hbmrd.RowBytes)
//	ch.ReadRow(0, 0, 1000, buf) // buf now contains RowHammer bitflips
//
// The experiment runners (RunBER, RunHCFirst, RunRowPressBER, RunBypass,
// UncoverTRR, ...) reproduce the paper's Figs 4-17; the Render* helpers
// print them in the shape of the corresponding table or figure. Every
// runner also has a Run*Context form that adds cancellation, worker-count
// control (WithJobs), and live streaming of progress and records
// (WithSink) on the shared sweep engine; results are deterministic - plan
// order - regardless of worker count.
package hbmrd

import (
	"context"
	"encoding/json"
	"io"
	"os"

	"hbmrd/internal/bender"
	"hbmrd/internal/core"
	"hbmrd/internal/disturb"
	"hbmrd/internal/ecc"
	"hbmrd/internal/hbm"
	"hbmrd/internal/pattern"
	"hbmrd/internal/query"
	"hbmrd/internal/report"
	"hbmrd/internal/retention"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
	"hbmrd/internal/thermal"
	"hbmrd/internal/trr"
	"hbmrd/internal/utrr"
)

// Re-exported device types.
type (
	// Chip is one simulated HBM2 stack.
	Chip = hbm.Chip
	// Channel is one independently operating HBM2 channel.
	Channel = hbm.Channel
	// ChipOption configures chip construction.
	ChipOption = hbm.Option
	// Geometry describes a chip organization (channels, pseudo channels,
	// banks, rows, row size).
	Geometry = hbm.Geometry
	// GeometryPreset bundles an organization with its timing table
	// (HBM2_8Gb, HBM2E_16Gb, HBM3_16Gb).
	GeometryPreset = hbm.Preset
	// Addr identifies a row through the command interface.
	Addr = hbm.Addr
	// Timing holds the JEDEC timing parameters.
	Timing = hbm.Timing
	// TimePS is simulated time in picoseconds.
	TimePS = hbm.TimePS
	// Profile is a chip fault-model calibration profile.
	Profile = disturb.Profile
	// Pattern is a Table 1 data pattern.
	Pattern = pattern.Pattern
	// TestChip couples a chip with its study index.
	TestChip = core.TestChip
	// Program is a MemBender test program.
	Program = bender.Program
	// Platform executes MemBender programs against a chip.
	Platform = bender.Platform
	// TRRFindings is the outcome of the U-TRR methodology.
	TRRFindings = utrr.Findings
	// FlipHistogram buckets 64-bit words by bitflip count (Fig 17).
	FlipHistogram = ecc.FlipHistogram
)

// Re-exported experiment configurations and records.
type (
	BERConfig          = core.BERConfig
	BERRecord          = core.BERRecord
	HCFirstConfig      = core.HCFirstConfig
	HCFirstRecord      = core.HCFirstRecord
	HCNthConfig        = core.HCNthConfig
	HCNthRecord        = core.HCNthRecord
	Fig12Stats         = core.Fig12Stats
	VariabilityConfig  = core.VariabilityConfig
	VariabilityRecord  = core.VariabilityRecord
	RowPressBERConfig  = core.RowPressBERConfig
	RowPressBERRecord  = core.RowPressBERRecord
	RowPressHCConfig   = core.RowPressHCConfig
	RowPressHCRecord   = core.RowPressHCRecord
	BypassConfig       = core.BypassConfig
	BypassRecord       = core.BypassRecord
	AgingConfig        = core.AgingConfig
	AgingRecord        = core.AgingRecord
	AgingSummary       = core.AgingSummary
	VRDConfig          = core.VRDConfig
	VRDRecord          = core.VRDRecord
	ColDisturbConfig   = core.ColDisturbConfig
	ColDisturbRecord   = core.ColDisturbRecord
	SubarrayScanConfig = core.SubarrayScanConfig
)

// Sweep-engine execution types: every Run*Context entry point accepts
// RunOptions, and a Sink observes a sweep while it runs (progress in
// completion order, records streamed strictly in plan order).
type (
	RunOption     = core.RunOption
	Sink          = core.Sink
	JSONLSink     = core.JSONLSink
	JSONLFileSink = core.JSONLFileSink
	ProgressSink  = core.ProgressSink
)

// Checkpoint/resume and sweep-identity types: every streamed sweep file
// starts with a SweepHeader whose fingerprint is a stable content hash of
// (experiment kind, canonical config, geometry, timing, chip set, code
// generation); ResumeFrom reads the valid prefix of a partial file back
// as a Checkpoint, and WithResume warm-starts the identical sweep from
// it. SweepKind names an experiment runner in headers, fingerprints, and
// hbmrdd sweep specs.
type (
	SweepHeader = core.SweepHeader
	Checkpoint  = core.Checkpoint
	SweepKind   = core.Kind
)

// The experiment kinds, one per sweep-shaped runner.
const (
	KindBER         = core.KindBER
	KindHCFirst     = core.KindHCFirst
	KindHCNth       = core.KindHCNth
	KindVariability = core.KindVariability
	KindRowPressBER = core.KindRowPressBER
	KindRowPressHC  = core.KindRowPressHC
	KindBypass      = core.KindBypass
	KindAging       = core.KindAging
	KindVRD         = core.KindVRD
	KindColDisturb  = core.KindColDisturb
)

// CodeGeneration is the fault-model behaviour generation stamped into
// every sweep fingerprint; it is bumped whenever the golden sweep digests
// are deliberately re-pinned, invalidating stored and checkpointed
// results from the old behaviour.
const CodeGeneration = core.CodeGeneration

// WithJobs bounds a sweep's worker pool at n concurrently executing
// channel groups (default GOMAXPROCS; 1 runs fully serial).
func WithJobs(n int) RunOption { return core.WithJobs(n) }

// WithSink streams a sweep's progress and records to s while it runs.
func WithSink(s Sink) RunOption { return core.WithSink(s) }

// WithResume warm-starts a sweep from a checkpoint read by ResumeFrom:
// the checkpointed cells' records pre-fill the result set, only the
// remainder executes, and a file-backed sink continues the stream
// byte-identically to an uninterrupted run. The runner rejects
// checkpoints whose fingerprint does not match its own sweep.
func WithResume(cp *Checkpoint) RunOption { return core.WithResume(cp) }

// ResumeFrom reads the valid prefix (fingerprint header plus complete
// record lines) of a partially written sweep file.
func ResumeFrom(r io.Reader) (*Checkpoint, error) { return core.ResumeFrom(r) }

// Tracer streams sweep-lifecycle spans (plan → cells → finalize) as
// JSON Lines, one object per completed span, keyed by the sweep's
// fingerprint. Tracing is strictly out-of-band of the record stream:
// it never changes a sweep's records, fingerprints, or sink bytes.
// `hbmrd -trace-out FILE` wires one up for CLI sweeps.
type Tracer = telemetry.Tracer

// NewTracer returns a Tracer writing JSONL spans to w (the caller
// owns w and closes it after the sweep).
func NewTracer(w io.Writer) *Tracer { return telemetry.NewTracer(w) }

// WithTracer attaches a span tracer to a sweep run.
func WithTracer(t *Tracer) RunOption { return core.WithTracer(t) }

// SweepFingerprint computes the fingerprint a Run*Context call with this
// kind, fleet, and config would stamp into its header, without running
// anything - the key for deduplicating finished sweeps.
func SweepFingerprint(kind SweepKind, fleet []*TestChip, cfg any) (string, error) {
	return core.FingerprintFor(kind, fleet, cfg)
}

// ShardRange is a contiguous [Start, End) range of a sweep's plan cells,
// the unit the distributed fabric splits sweeps into.
type ShardRange = core.ShardRange

// WithShard restricts a sweep run to the plan cells in r: the stream's
// header carries the parent fingerprint plus the range, its fingerprint
// is the shard's sub-fingerprint, and its records are exactly the
// parent's record lines for that range - so concatenating contiguous
// shard payloads under the parent header reproduces the whole-sweep file
// byte for byte. Aging sweeps cannot shard.
func WithShard(r ShardRange) RunOption { return core.WithShard(r) }

// ShardFingerprint derives the deterministic sub-fingerprint of the
// [start, end) shard of the sweep fingerprinted by parent.
func ShardFingerprint(parent string, start, end int) string {
	return core.ShardFingerprint(parent, start, end)
}

// SweepPlanSize reports how many plan cells a Run*Context call with this
// kind, fleet, and config would execute - the bound shard ranges are
// validated against. Aging sweeps compose two inner sweeps and have no
// single plan; they return an error.
func SweepPlanSize(kind SweepKind, fleet []*TestChip, cfg any) (int, error) {
	return core.PlanSize(kind, fleet, cfg)
}

// NewJSONLSink streams every record to w as one JSON object per line -
// the sweep's fingerprint header first, then records in plan order, so a
// truncated file is a valid prefix of the full result set and a
// resumable checkpoint.
func NewJSONLSink(w io.Writer) *JSONLSink { return core.NewJSONLSink(w) }

// NewJSONLFileSink is NewJSONLSink over a file, adding the resume
// contract: on a resumed sweep the file is truncated to the checkpoint
// boundary and appended from there. The caller closes f after checking
// Err.
func NewJSONLFileSink(f *os.File) *JSONLFileSink { return core.NewJSONLFileSink(f) }

// SweepStore is a content-addressed, on-disk store of finished sweeps:
// the fingerprint is the address, the completed JSONL stream the value.
// Since equal fingerprints mean byte-identical record streams, a hit can
// be served in place of re-running the sweep - this is the durability
// layer under the hbmrdd service.
type SweepStore = store.Store

// SweepStoreMeta describes one stored sweep.
type SweepStoreMeta = store.Meta

// ErrSweepNotFound reports a fingerprint with no finished sweep stored.
var ErrSweepNotFound = store.ErrNotFound

// OpenSweepStore opens (creating if needed) a sweep store rooted at dir.
func OpenSweepStore(dir string) (*SweepStore, error) { return store.Open(dir) }

// Query subsystem: decode stored sweeps back into typed records, catalog
// what a store holds, and run aggregation pipelines (group-by over the
// sweep's dimensions with reducers built on the study's statistics) whose
// results are content-addressed into the store's derived cache - so every
// paper figure is reproducible from stored data without re-execution, and
// repeated identical queries never re-read the raw records.
type (
	// QuerySpec is one aggregation query over one stored sweep.
	QuerySpec = query.Spec
	// QueryCond is one record filter of a query spec.
	QueryCond = query.Cond
	// QueryAggregate is the typed result of one query.
	QueryAggregate = query.Aggregate
	// QueryResult is one executed query: aggregate, canonical JSON, and
	// the path that answered it (derived cache or columnar artifact).
	QueryResult = query.Result
	// QueryEngine executes query specs against a sweep store. Cache
	// misses read the sweep's columnar artifact, rebuilding it from the
	// JSONL records first when it is missing or corrupt.
	QueryEngine = query.Engine
	// SweepCatalog indexes the finished sweeps a store holds.
	SweepCatalog = query.Catalog
	// CatalogFilter is one catalog predicate for SweepCatalog.Find.
	CatalogFilter = query.Filter
)

// QueryResult.Source values: which path produced the aggregate.
const (
	QuerySourceCache    = query.SourceCache
	QuerySourceColumnar = query.SourceColumnar
)

// NewQueryEngine builds a query engine over a sweep store.
func NewQueryEngine(s *SweepStore) *QueryEngine { return query.NewEngine(s) }

// NewSweepCatalog indexes a store's finished sweeps.
func NewSweepCatalog(s *SweepStore) (*SweepCatalog, error) { return query.NewCatalog(s) }

// Catalog filters for SweepCatalog.Find.
func CatalogByKind(kind string) CatalogFilter       { return query.ByKind(kind) }
func CatalogByGeometry(preset string) CatalogFilter { return query.ByGeometry(preset) }
func CatalogByChips(chips ...int) CatalogFilter     { return query.ByChips(chips...) }
func CatalogByConfig(pred func(json.RawMessage) bool) CatalogFilter {
	return query.ByConfig(pred)
}

// QueryFigureSpec returns the predefined spec reproducing one of the
// paper's figure aggregations (fig4 fig5 fig6 fig7 fig9 fig13 fig14 fig15
// fig16, plus figrank for multi-rank organizations, figvrd for the VRD
// trial-distribution view, and figcoldist for flips versus column-read
// distance) from the stored sweep at the fingerprint.
func QueryFigureSpec(fig, sweep string) (QuerySpec, error) { return query.FigureSpec(fig, sweep) }

// QueryDimensions and QueryMetrics list a kind's group-by/filter and
// aggregation vocabularies.
func QueryDimensions(kind SweepKind) []string { return query.Dimensions(kind) }
func QueryMetrics(kind SweepKind) []string    { return query.Metrics(kind) }

// IngestSweep finalizes a completed `-out` sweep JSONL file into the
// store under its header fingerprint. Torn or incomplete files are
// rejected (resume them instead).
func IngestSweep(s *SweepStore, path string) (SweepStoreMeta, error) { return query.Ingest(s, path) }

// DecodeSweepRecords parses a stored sweep stream back into its kind's
// concrete record type ([]BERRecord, []HCFirstRecord, ...), the exact
// inverse of the JSONL sink encoding. Pass kind "" to accept whatever the
// header declares.
func DecodeSweepRecords(kind SweepKind, r io.Reader) (SweepHeader, any, error) {
	return core.DecodeRecords(kind, r)
}

// EncodeSweepRecords writes a sweep stream exactly as a live JSONL sink
// would; composed with DecodeSweepRecords it reproduces the input byte
// for byte.
func EncodeSweepRecords(w io.Writer, h SweepHeader, records any) error {
	return core.EncodeRecords(w, h, records)
}

// RenderAggregate prints a query aggregate as an aligned text table, the
// same presentation the figure renderers use.
func RenderAggregate(a *QueryAggregate) string { return report.AggregateTable(a) }

// NewProgressSink reports whole-percent sweep progress for the labelled
// experiment to w.
func NewProgressSink(w io.Writer, label string) *ProgressSink {
	return core.NewProgressSink(w, label)
}

// MultiSink fans sink callbacks out to several sinks in order.
func MultiSink(sinks ...Sink) Sink { return core.MultiSink(sinks...) }

// Geometry constants of the default (paper HBM2) organization, and time
// units. Chips built with a non-default preset report their organization
// through Chip.Geometry instead.
const (
	NumChannels       = hbm.NumChannels
	NumPseudoChannels = hbm.NumPseudoChannels
	NumBanks          = hbm.NumBanks
	NumRows           = hbm.NumRows
	RowBytes          = hbm.RowBytes
	RowBits           = hbm.RowBits

	NS  = hbm.NS
	US  = hbm.US
	MS  = hbm.MS
	SEC = hbm.SEC
)

// Geometry preset names and device families.
const (
	PresetHBM2  = hbm.PresetHBM2
	PresetHBM2E = hbm.PresetHBM2E
	PresetHBM3  = hbm.PresetHBM3

	FamilyHBM2  = hbm.FamilyHBM2
	FamilyHBM2E = hbm.FamilyHBM2E
	FamilyHBM3  = hbm.FamilyHBM3
)

// Presets returns the geometry preset registry: the paper's HBM2 part
// first, then the legacy HBM2E/HBM3 organizations and the ported
// Ramulator2 matrix (HBM2/HBM2E data-rate rows, the twelve JESD238 HBM3
// rank variants).
func Presets() []GeometryPreset { return hbm.Presets() }

// PresetsByFamily returns the registered presets of one device family
// ("HBM2", "HBM2E", "HBM3").
func PresetsByFamily(family string) []GeometryPreset { return hbm.PresetsByFamily(family) }

// LookupPreset finds a geometry preset by name (case-insensitive).
func LookupPreset(name string) (GeometryPreset, error) { return hbm.LookupPreset(name) }

// PresetAtRate returns a ported preset rebound to another data rate of
// its family's timing matrix (see FamilyRates).
func PresetAtRate(name string, rateMbps int) (GeometryPreset, error) {
	return hbm.PresetAtRate(name, rateMbps)
}

// FamilyRates returns the data rates (Mbps) a device family's ported
// timing matrix covers.
func FamilyRates(family string) []int { return hbm.FamilyRates(family) }

// DefaultGeometry returns the paper's HBM2 organization.
func DefaultGeometry() Geometry { return hbm.DefaultGeometry() }

// WithGeometry builds a chip with a preset's organization and timing table.
// An explicit WithTiming still overrides the preset's timing.
func WithGeometry(p GeometryPreset) ChipOption { return hbm.WithGeometry(p) }

// Data patterns (Table 1).
const (
	Rowstripe0 = pattern.Rowstripe0
	Rowstripe1 = pattern.Rowstripe1
	Checkered0 = pattern.Checkered0
	Checkered1 = pattern.Checkered1
)

// AllPatterns lists the four Table 1 patterns.
func AllPatterns() []Pattern { return pattern.All() }

// NewChip builds one of the paper's six chips (index 0-5).
func NewChip(index int, opts ...ChipOption) (*Chip, error) {
	return hbm.NewBuiltin(index, opts...)
}

// NewCustomChip builds a chip from a custom fault-model profile.
func NewCustomChip(p Profile, opts ...ChipOption) (*Chip, error) {
	return hbm.New(p, opts...)
}

// BuiltinProfiles returns the six calibrated chip profiles.
func BuiltinProfiles() []Profile { return disturb.BuiltinProfiles() }

// DefaultTiming returns the study's HBM2 timing parameters.
func DefaultTiming() Timing { return hbm.DefaultTiming() }

// WithIdentityMapping disables the vendor row swizzle (useful when an
// experiment wants logical adjacency to equal physical adjacency without
// reverse engineering first). It adapts to the chip's geometry, so it
// composes with WithGeometry in any option order.
func WithIdentityMapping() ChipOption {
	return hbm.WithIdentityMapping()
}

// WithoutTRR disables the undocumented on-die TRR mechanism.
func WithoutTRR() ChipOption {
	return hbm.WithTRRConfig(trr.Config{Enabled: false})
}

// WithTiming overrides the chip's timing parameters.
func WithTiming(t Timing) ChipOption { return hbm.WithTiming(t) }

// WithStrictTiming makes early commands fail instead of auto-delaying.
func WithStrictTiming() ChipOption { return hbm.WithStrictTiming() }

// NewFleet builds the given subset of the study's chips (ECC disabled, as
// in every experiment of the paper).
func NewFleet(indices []int, opts ...ChipOption) ([]*TestChip, error) {
	return core.NewFleet(indices, opts...)
}

// NewFullFleet builds all six chips.
func NewFullFleet(opts ...ChipOption) ([]*TestChip, error) {
	return core.NewFullFleet(opts...)
}

// AllChips lists the paper's six chip indices.
func AllChips() []int { return core.AllChips() }

// SampleRows spreads n victim rows evenly across a bank of the default
// geometry.
func SampleRows(n int) []int { return core.SampleRows(n) }

// SampleRowsIn spreads n victim rows evenly across a bank of geometry g.
func SampleRowsIn(g Geometry, n int) []int { return core.SampleRowsIn(g, n) }

// RegionRows samples count rows from the beginning, middle, and end of a
// bank of the default geometry.
func RegionRows(count int) []int { return core.RegionRows(count) }

// RegionRowsIn samples count rows from the beginning, middle, and end of a
// bank of geometry g.
func RegionRowsIn(g Geometry, count int) []int { return core.RegionRowsIn(g, count) }

// Experiment runners (one per paper artifact; see DESIGN.md §5). Each
// runner has two entry points: the plain form runs to completion on a
// background context, while the Context form adds cancellation and
// execution options (WithJobs, WithSink). All of them execute on the
// shared sweep engine, so results are deterministic - plan order -
// regardless of worker count.
func RunBER(fleet []*TestChip, cfg BERConfig) ([]BERRecord, error) { return core.RunBER(fleet, cfg) }

func RunBERContext(ctx context.Context, fleet []*TestChip, cfg BERConfig, opts ...RunOption) ([]BERRecord, error) {
	return core.RunBERContext(ctx, fleet, cfg, opts...)
}

func RunHCFirst(fleet []*TestChip, cfg HCFirstConfig) ([]HCFirstRecord, error) {
	return core.RunHCFirst(fleet, cfg)
}

func RunHCFirstContext(ctx context.Context, fleet []*TestChip, cfg HCFirstConfig, opts ...RunOption) ([]HCFirstRecord, error) {
	return core.RunHCFirstContext(ctx, fleet, cfg, opts...)
}

func RunHCNth(fleet []*TestChip, cfg HCNthConfig) ([]HCNthRecord, error) {
	return core.RunHCNth(fleet, cfg)
}

func RunHCNthContext(ctx context.Context, fleet []*TestChip, cfg HCNthConfig, opts ...RunOption) ([]HCNthRecord, error) {
	return core.RunHCNthContext(ctx, fleet, cfg, opts...)
}

func ComputeFig12(recs []HCNthRecord) ([]Fig12Stats, error) { return core.ComputeFig12(recs) }

func RunVariability(fleet []*TestChip, cfg VariabilityConfig) ([]VariabilityRecord, error) {
	return core.RunVariability(fleet, cfg)
}

func RunVariabilityContext(ctx context.Context, fleet []*TestChip, cfg VariabilityConfig, opts ...RunOption) ([]VariabilityRecord, error) {
	return core.RunVariabilityContext(ctx, fleet, cfg, opts...)
}

func RunRowPressBER(fleet []*TestChip, cfg RowPressBERConfig) ([]RowPressBERRecord, error) {
	return core.RunRowPressBER(fleet, cfg)
}

func RunRowPressBERContext(ctx context.Context, fleet []*TestChip, cfg RowPressBERConfig, opts ...RunOption) ([]RowPressBERRecord, error) {
	return core.RunRowPressBERContext(ctx, fleet, cfg, opts...)
}

func RunRowPressHC(fleet []*TestChip, cfg RowPressHCConfig) ([]RowPressHCRecord, error) {
	return core.RunRowPressHC(fleet, cfg)
}

func RunRowPressHCContext(ctx context.Context, fleet []*TestChip, cfg RowPressHCConfig, opts ...RunOption) ([]RowPressHCRecord, error) {
	return core.RunRowPressHCContext(ctx, fleet, cfg, opts...)
}

func RunBypass(fleet []*TestChip, cfg BypassConfig) ([]BypassRecord, error) {
	return core.RunBypass(fleet, cfg)
}

func RunBypassContext(ctx context.Context, fleet []*TestChip, cfg BypassConfig, opts ...RunOption) ([]BypassRecord, error) {
	return core.RunBypassContext(ctx, fleet, cfg, opts...)
}

func RunAging(fleet []*TestChip, cfg AgingConfig) ([]AgingRecord, error) {
	return core.RunAging(fleet, cfg)
}

func RunAgingContext(ctx context.Context, fleet []*TestChip, cfg AgingConfig, opts ...RunOption) ([]AgingRecord, error) {
	return core.RunAgingContext(ctx, fleet, cfg, opts...)
}

func SummarizeAging(recs []AgingRecord) AgingSummary { return core.SummarizeAging(recs) }

func RunVRD(fleet []*TestChip, cfg VRDConfig) ([]VRDRecord, error) {
	return core.RunVRD(fleet, cfg)
}

func RunVRDContext(ctx context.Context, fleet []*TestChip, cfg VRDConfig, opts ...RunOption) ([]VRDRecord, error) {
	return core.RunVRDContext(ctx, fleet, cfg, opts...)
}

func RunColDisturb(fleet []*TestChip, cfg ColDisturbConfig) ([]ColDisturbRecord, error) {
	return core.RunColDisturb(fleet, cfg)
}

func RunColDisturbContext(ctx context.Context, fleet []*TestChip, cfg ColDisturbConfig, opts ...RunOption) ([]ColDisturbRecord, error) {
	return core.RunColDisturbContext(ctx, fleet, cfg, opts...)
}

func ScanSubarrayBoundaries(tc *TestChip, cfg SubarrayScanConfig) ([]int, error) {
	return core.ScanSubarrayBoundaries(tc, cfg)
}

func ReverseEngineerMapping(tc *TestChip, cfg SubarrayScanConfig, logicalRows []int) ([][]int, error) {
	return core.ReverseEngineerMapping(tc, cfg, logicalRows)
}

// UncoverTRR runs the U-TRR retention-side-channel methodology against a
// freshly built chip (no REFs may have been issued yet) and returns the
// uncovered mechanism parameters.
func UncoverTRR(chip *Chip) (TRRFindings, error) {
	ch, err := chip.Channel(0)
	if err != nil {
		return TRRFindings{}, err
	}
	p := &utrr.Prober{Chan: ch, Mapper: chip.Mapper(), Fill: 0x55}
	return p.Uncover(3000, 128*MS, 4*SEC)
}

// NewPlatform attaches a MemBender platform to a chip.
func NewPlatform(chip *Chip) *Platform { return bender.NewPlatform(chip) }

// ParseProgram assembles a MemBender text program.
func ParseProgram(r io.Reader) (*Program, error) { return bender.Parse(r) }

// ThermalSample is one point of a Fig 3 temperature trace.
type ThermalSample = thermal.Sample

// SimulateTemperatures regenerates the Fig 3 traces for all six chips.
func SimulateTemperatures(durationSec, sampleEverySec float64) (names []string, traces [][]ThermalSample, err error) {
	for _, setup := range thermal.PaperSetups() {
		tr, err := thermal.Simulate(setup, durationSec, sampleEverySec)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, setup.Name)
		traces = append(traces, tr)
	}
	return names, traces, nil
}

// WordFlipHistograms aggregates the Fig 17 word-level flip histograms per
// pattern from mask-collecting BER records.
func WordFlipHistograms(recs []BERRecord) (map[Pattern]*FlipHistogram, error) {
	hists := make(map[Pattern]*FlipHistogram)
	for _, r := range recs {
		if r.WCDP || r.Mask == nil {
			continue
		}
		h, ok := hists[r.Pattern]
		if !ok {
			h = &FlipHistogram{}
			hists[r.Pattern] = h
		}
		if err := h.AccumulateWordFlips(r.Mask); err != nil {
			return nil, err
		}
	}
	return hists, nil
}

// Renderers: print results in the shape of the paper's artifacts. A
// figure with a query preset (Figs 4-7, 9, 13, 14, 16) prints the preset's
// aggregate, the table `hbmrd figN` prints; its sweep field is empty,
// since bare records carry no fingerprint.
func RenderTable1() string                                       { return report.Table1() }
func RenderTable2() string                                       { return report.Table2() }
func RenderFig3(names []string, traces [][]ThermalSample) string { return report.Fig3(names, traces) }
func RenderFig4(recs []BERRecord) string                         { return renderFigure("fig4", KindBER, recs) }
func RenderFig5(recs []HCFirstRecord) string                     { return renderFigure("fig5", KindHCFirst, recs) }
func RenderFig6(recs []BERRecord) string                         { return renderFigure("fig6", KindBER, recs) }
func RenderFig7(recs []HCFirstRecord) string                     { return renderFigure("fig7", KindHCFirst, recs) }
func RenderFig8CSV(recs []BERRecord, boundaries []int) string {
	return report.Fig8CSV(recs, boundaries)
}
func RenderFig9(recs []BERRecord) string    { return renderFigure("fig9", KindBER, recs) }
func RenderFig10(s AgingSummary) string     { return report.Fig10(s) }
func RenderFig11(recs []HCNthRecord) string { return report.Fig11(recs) }
func RenderFig12(s []Fig12Stats) string     { return report.Fig12(s) }
func RenderFig13(recs []VariabilityRecord) string {
	return renderFigure("fig13", KindVariability, recs)
}
func RenderFig14(recs []RowPressBERRecord) string {
	return renderFigure("fig14", KindRowPressBER, recs)
}
func RenderFig15(recs []RowPressHCRecord) string          { return report.Fig15(recs) }
func RenderFig16(recs []BypassRecord) string              { return renderFigure("fig16", KindBypass, recs) }
func RenderFig17(hists map[Pattern]*FlipHistogram) string { return report.Fig17(hists) }
func RenderTRRFindings(f TRRFindings) string              { return report.UTRR(f) }

// renderFigure prints records through their figure's query preset.
func renderFigure(preset string, kind SweepKind, recs any) string {
	out, err := report.Figure(preset, "", kind, recs)
	if err != nil {
		// Each caller passes a preset over its own kind's record slice,
		// which always aggregates.
		panic(err)
	}
	return out
}

// MeasureRetentionBaselines reproduces the §6 retention measurements: the
// aggregate retention BER of `rows` rows on one bank after each wait.
func MeasureRetentionBaselines(chip *Chip, channel, rows int, waits []TimePS) ([]float64, error) {
	ch, err := chip.Channel(channel)
	if err != nil {
		return nil, err
	}
	prof := &retention.Profiler{Chan: ch, PC: 0, Bank: 0, Fill: 0x55}
	out := make([]float64, 0, len(waits))
	for _, w := range waits {
		ber, err := prof.MeasureRetentionBER(1000, rows, w)
		if err != nil {
			return nil, err
		}
		out = append(out, ber)
	}
	return out, nil
}

// RenderRetention prints the §6 retention baselines.
func RenderRetention(waits []TimePS, bers []float64) string {
	return report.Retention(waits, bers)
}

// RenderTemplating prints the §8.1 naive-vs-targeted templating comparison.
func RenderTemplating(naive, targeted TemplateResult) string {
	return report.Templating(naive, targeted)
}

// RenderDefense prints the §8.2 uniform-vs-adaptive mitigation comparison.
func RenderDefense(rep DefenseReport) string { return report.Defense(rep) }
