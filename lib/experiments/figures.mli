(** One harness per table/figure of the paper's evaluation (Section 6).

    Every function runs the corresponding experiment on the simulated
    machine and renders a table of measured slowdowns next to the
    paper's reported values. [scale] shrinks element counts for quick
    runs; [1.0] reproduces the paper's sizes (10 000 elements; the
    wordcount defaults are scaled down from the paper's 1M/2M words —
    pass [wordcount_full:true] for the full sizes). [seed] overrides the
    workload seed (default {!Runner.default}'s 42; the wordcount app
    uses its own fixed machine seed unless overridden).

    Alongside the rendered rows, every table carries machine-readable
    [records]: one JSON object per measured row holding raw cycle
    counts, the baseline they are normalized to, and the
    {!Runner.measurement.counters} breakdown. [nvmpi bench --json]
    serializes them and [nvmpi check] regresses against them; the schema
    is documented in [docs/METRICS.md].

    The paper's numbers come from PMEP hardware; ours from a cache/cycle
    model, so the claim being reproduced is the {e shape}: which method
    wins, by roughly what factor, and where the crossovers fall. *)

val slowdowns :
  ?swizzle_single_use:bool ->
  Runner.config ->
  Core.Repr.kind list ->
  Runner.measurement
  * (Core.Repr.kind * (Runner.measurement * Runner.measurement) option) list
(** Runs one configuration under each representation against a shared
    normal-pointer baseline. Returns the baseline measurement and, per
    representation, [Some (measurement, baseline)] — the baseline being
    the measurement the slowdown is computed against — or [None] for
    representations inapplicable to the configuration
    (intra-region-only methods with several regions). Verifies every
    representation reproduces the baseline's traversal checksum.

    With [swizzle_single_use] (Figure 12's setting), the swizzle
    representation is measured at one use — swizzle + 1 traversal +
    unswizzle against 1 normal traversal — regardless of the config's
    traversal count (its returned baseline is then the 1-traversal
    normal run, not the shared one); Table 1 keeps the default and
    sweeps the amortization instead. *)

val ratio : Runner.measurement -> Runner.measurement -> float
(** [ratio m b] is [m]'s measured cycles over [b]'s: the slowdown. *)

val value :
  (Runner.measurement * Runner.measurement) option -> float option
(** The slowdown of one {!slowdowns} result cell, when applicable. *)

val cell_json :
  ?baseline:Runner.measurement ->
  label:string ->
  Runner.measurement ->
  Core.Json.t
(** One record cell: [{label; cycles; baseline_cycles?; slowdown?;
    counters}]. *)

val row_json : row:string -> Core.Json.t list -> Core.Json.t
(** One table record: [{row; cells}]. *)

val sweep_record :
  row:string ->
  Runner.measurement
  * (Core.Repr.kind * (Runner.measurement * Runner.measurement) option) list ->
  Core.Json.t
(** The standard record for one {!slowdowns} row: a ["normal"] baseline
    cell followed by one cell per applicable representation. *)

type experiment =
  ?scale:float -> ?seed:int -> ?durability:Core.Durability.t -> unit -> Table.t
(** A suite experiment: [scale] multiplies workload sizes, [seed]
    overrides the fixed workload seed, and [durability] (default eager)
    is the discipline of every machine the experiment creates. *)

val seeded :
  ?durability:Core.Durability.t -> int option -> Runner.config -> Runner.config
(** Applies an experiment's [seed] (when given) and [durability] to a
    runner configuration. *)

val fig12 : experiment
(** Figure 12: non-transactional traversal slowdowns, one NVRegion,
    32-byte payload, for the four data structures. *)

val payload_sweep : experiment
(** Section 6.2's payload experiment: average slowdown per method at 32-
    and 256-byte payloads. Records carry the per-structure runs the
    rendered averages are taken over. *)

val table1 : experiment
(** Table 1: pointer-swizzling overhead after 1, 10 and 100 traversals.
    One record per (structure, traversal-count) run. *)

val fig13 : experiment
(** Figure 13: transactional (PMEM.IO-like object store), one NVRegion,
    traversal and random-search workloads. *)

val fig14 : experiment
(** Figure 14: transactional, elements striped over 10 NVRegions. *)

val regions_sweep : experiment
(** Section 6.3's region-count sweep (2/4/8/10 regions). *)

val wordcount_run :
  ?seed:int ->
  ?durability:Core.Durability.t ->
  repr:Core.Repr.kind ->
  nwords:int ->
  vocab:int ->
  unit ->
  Nvmpi_apps.Wordcount.result * int * (string * int) list
(** One wordcount execution: the distinct/total word summary, its cost
    in simulated cycles, and the metric deltas over the counting
    phase. *)

val fig15 :
  ?scale:float -> ?seed:int -> ?durability:Core.Durability.t -> ?full:bool ->
  unit -> Table.t
(** Figure 15: wordcount execution times at two input sizes.
    [full] uses the paper's 1M/2M-word inputs (slow). *)

val breakdown : experiment
(** Section 6.2's RIV read-cost breakdown: share of cycles spent
    extracting fields, computing the base address, and finishing the
    read. Its record carries the absolute per-phase cycle counts. *)
