(** The experiment suite as a unit: named experiments, JSON snapshots
    of their results, and regression checking of one snapshot against
    another.

    A snapshot is the schema-versioned document [nvmpi bench --json]
    writes (see [docs/METRICS.md] for the full schema):

    {v
    { "schema_version": 2,
      "params": { "scale": ..., "seed": ..., "wordcount_full": ... },
      "experiments": [ { "name": "fig12", "tables": [ ... ] }, ... ] }
    v}

    Every number in it is simulated, so a snapshot is byte-identical
    across reruns and across [--jobs]. Host time is measured by
    [perfbench/], never here.

    [check] compares the per-cell ["cycles"] values of two snapshots'
    table records; because the simulator is deterministic, a fresh run
    with a snapshot's own [params] reproduces it exactly, and any drift
    beyond the tolerance signals a behavioural change in the simulator
    or a representation. *)

val schema_version : int

type params = { scale : float; seed : int option; wordcount_full : bool }
(** What a snapshot captures about how it was produced. [seed = None]
    leaves each experiment's default seed in effect. *)

val default : params
(** scale 1.0, default seeds, scaled wordcount inputs. *)

val names : string list
(** Every experiment name: the paper's fig12, payload, table1, fig13,
    fig14, regions, fig15, breakdown and ablations, in paper order,
    then this repo's churn, durset and snapshot. *)

val mem : string -> bool
(** Whether a string names a suite experiment. *)

type result = { name : string; tables : Table.t list }

val run_all :
  ?jobs:int -> ?durability:Core.Durability.t -> params -> string list ->
  result list
(** Runs the named experiments on machines created with [durability]
    (default eager), on a {!Nvmpi_parsweep.Pool} of [jobs] domains
    (default 1, which runs them inline) — each experiment builds
    private machines and metrics registries — and returns results in
    request order, identical for every [jobs]. The discipline is not
    part of [params]: snapshots do not record it, so {!check} always
    re-runs eager.
    @raise Invalid_argument on an unknown name (check {!mem} first). *)

val snapshot_of : params -> result list -> Nvmpi_obs.Json.t
(** The schema-versioned snapshot document for a set of results. *)

val params_of_json :
  Nvmpi_obs.Json.t -> (params, string) Stdlib.result
(** Reads a snapshot's [params], so a check can re-run with the exact
    configuration the baseline was produced with. *)

val names_of_json :
  Nvmpi_obs.Json.t -> (string list, string) Stdlib.result
(** The experiment names a snapshot contains, in order. *)

val check :
  ?tolerance:float ->
  baseline:Nvmpi_obs.Json.t ->
  fresh:Nvmpi_obs.Json.t ->
  unit ->
  (int * string list, string) Stdlib.result
(** [check ~baseline ~fresh ()] compares every record cell of
    [baseline] that carries a ["cycles"] value against the same cell of
    [fresh] (keyed by experiment name, table title, record row and cell
    label). [Ok (compared, mismatches)] gives the number of cells
    compared and a human-readable line per cell that is missing from
    [fresh] or whose cycles deviate by more than [tolerance]
    (default 0.10, i.e. 10%) in either direction — a large speedup is
    as suspicious as a slowdown when the simulator is deterministic.
    [Error] means a snapshot is malformed or from another schema
    version. *)
