(** The simulator's counter registry.

    One {!t} is owned by each simulated machine and threaded through
    every layer that incurs cost: the paged memory ({!mem.loads} style
    raw access counts), the cache/timing model (per-level hits and
    misses, DRAM/NVM traffic, ALU cycles, flushes, fences) and the
    pointer representations (conversions, table lookups, fat-cache
    hits, swizzle passes, cross-region faults).

    Counters are named with dotted paths ([cache.l1.hits],
    [riv.base_table_loads], [repr.fat.loads]); the full catalogue and
    the invariants relating counters to cycle totals live in
    [docs/METRICS.md]. A counter exists from the moment something asks
    for it and reads 0 until first incremented.

    Hot paths (one increment per simulated memory access) resolve their
    counter once with {!counter} and bump the returned [int ref]
    directly; occasional increments can use {!incr}. *)

type t

val create : unit -> t
(** Fresh registry with no counters. *)

val counter : t -> string -> int ref
(** The cell behind [name], registering it at 0 on first use. The same
    name always returns the same cell. *)

val incr : ?by:int -> t -> string -> unit
(** [incr t name] adds [by] (default 1) to the counter. *)

val get : t -> string -> int
(** Current value; 0 for a counter never touched. *)

val reset : t -> unit
(** Zeroes every registered counter (cells stay valid). *)

val snapshot : t -> (string * int) list
(** All registered counters with their current values, sorted by name.
    The list is a value copy: later increments don't affect it. *)

val diff : before:(string * int) list -> after:(string * int) list ->
  (string * int) list
(** Per-counter [after - before], dropping zero deltas; counters absent
    on one side count as 0. Used to attribute counters to a measured
    phase: snapshot, run, snapshot, diff. *)

(** {1 JSON} *)

val to_json : t -> Json.t
(** The {!snapshot} as a JSON object [{"name": value, ...}]. *)

val json_of_counters : (string * int) list -> Json.t

val counters_of_json : Json.t -> ((string * int) list, string) result
(** Inverse of {!json_of_counters}; rejects non-object input and
    non-integer values. *)
