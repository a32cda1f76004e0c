(** The simulated machine: one virtual address space ("one run") wired to
    the NVM device, the timing model and the runtime state that the
    pointer representations need.

    A machine bundles:
    - a {!Nvmpi_memsim.Memsim.t} address space with the NV space mapped
      per a {!Nvmpi_addr.Layout.t};
    - a {!Nvmpi_cachesim.Timing.t} cycle model attached to it;
    - a {!Nvmpi_nvregion.Manager.t} that opens NVRegions from a shared
      {!Nvmpi_nvregion.Store.t} at randomized segments;
    - the RIV lookup tables ({!Nvspace}), populated on region open;
    - the fat-pointer runtime ({!Fat_table}: ID-to-base hashtable and
      base-sorted region list, both living in simulated DRAM);
    - the one-entry fat-pointer cache ([lastID]/[lastAddr] globals in
      simulated DRAM) and the based-pointer base register.

    Creating a second machine over the same store and re-opening the
    regions models a new run in which every region lands at a different
    virtual address. *)

(** The hot counters bumped once per pointer operation, each naming
    its registry counter once; see {!bump}. *)
module Cell : sig
  type t

  val normal_stores : t
  val normal_loads : t
  val off_holder_stores : t
  val off_holder_loads : t
  val riv_stores : t
  val riv_loads : t
  val fat_stores : t
  val fat_loads : t
  val fat_cached_stores : t
  val fat_cached_loads : t
  val fat_cache_hits : t
  val fat_cache_misses : t
  val based_stores : t
  val based_loads : t
  val swizzle_stores : t
  val swizzle_loads : t
  val swizzle_packed_stores : t
  val swizzle_swizzled : t
  val swizzle_unswizzled : t
  val packed_fat_stores : t
  val packed_fat_loads : t
  val hw_oid_stores : t
  val hw_oid_loads : t
  val dur_traversal_loads : t
  val dur_window_flushes : t
  val dur_helper_flushes : t
  val dur_marks_set : t
  val dur_marks_cleared : t
end

type t = {
  layout : Nvmpi_addr.Layout.t;
  mem : Nvmpi_memsim.Memsim.t;
  clock : Nvmpi_cachesim.Clock.t;
  timing : Nvmpi_cachesim.Timing.t;
  manager : Nvmpi_nvregion.Manager.t;
  nvspace : Nvspace.t;
  fat : Fat_table.t;
  metrics : Nvmpi_obs.Metrics.t;
      (** the machine-wide counter registry every layer reports into;
          catalogue in [docs/METRICS.md] *)
  cells : int ref array;
      (** lazily resolved registry cells, one per {!Cell}; use {!bump},
          never index directly *)
  durability : Durability.t;
      (** the persistence discipline structures and stores built on
          this machine follow; fixed at {!create} *)
  mutable based_base : Nvmpi_addr.Kinds.Vaddr.t;
      (** base register for based pointers; {!Nvmpi_addr.Kinds.Vaddr.null}
          = unset *)
  mutable crash_hook : (unit -> unit) option;
      (** materializes a power failure on this machine: reverts every
          tracked region to its durable bytes and cold-starts the caches.
          Installed by [Nvmpi_faultsim.Tracker.attach]; [None] (the
          default) means no durability tracker is attached and
          [Tx.simulate_crash] conservatively leaves memory as-is. *)
  mutable dram_cursor : int;
  dram_limit : int;
}

exception
  Cross_region_store of {
    holder : Nvmpi_addr.Kinds.Vaddr.t;
    target : Nvmpi_addr.Kinds.Vaddr.t;
    repr : string;
  }
(** Raised when an intra-region-only representation (off-holder, based)
    is asked to store a pointer whose target lives in a different region
    than the holder. *)

val create :
  ?layout:Nvmpi_addr.Layout.t ->
  ?cfg:Nvmpi_cachesim.Timing_config.t ->
  ?metrics:Nvmpi_obs.Metrics.t ->
  ?seed:int ->
  ?durability:Durability.t ->
  store:Nvmpi_nvregion.Store.t ->
  unit ->
  t
(** A fresh address space over [store]. [seed] fixes region placement
    (tests); without it placement is randomized per machine. [metrics]
    lets several machines share one counter registry; by default each
    machine owns a fresh one. [durability] defaults to
    {!Durability.Eager}. *)

(** {1 Regions} *)

val create_region : t -> size:int -> Nvmpi_addr.Kinds.Rid.t

val open_region :
  ?at_nvbase:Nvmpi_addr.Kinds.Seg.t ->
  t ->
  Nvmpi_addr.Kinds.Rid.t ->
  Nvmpi_nvregion.Region.t
(** Opens the region, places it at a (random) NV segment, and registers
    it with the RIV tables and the fat-pointer runtime. *)

val migrate_region :
  t -> Nvmpi_addr.Kinds.Rid.t -> size:int -> Nvmpi_nvregion.Region.t
(** Section 4.4's migration: grows the region's image to [size] bytes
    and remaps it (at a fresh segment). Only position-independent
    contents survive, which is the point: off-holder/RIV structures keep
    working after migration, absolute pointers would dangle.
    @raise Invalid_argument if [size] does not exceed the current size
    or exceeds a segment. *)

val remap_region :
  t -> Nvmpi_addr.Kinds.Rid.t -> Nvmpi_nvregion.Region.t
(** Closes the region (persisting its image) and reopens it at a fresh
    randomized NV segment, guaranteed different from the one it just
    vacated. Models "the region moved" within a single run — the
    adversarial event every position-independent representation must
    survive and absolute pointers must not. Preserves the based-pointer
    base register if it pointed at this region (retargeting it to the
    new base). Deterministic under a seeded machine.
    @raise Invalid_argument if the region is not open. *)

val close_region : t -> Nvmpi_addr.Kinds.Rid.t -> unit
(** Persists the image back to the store, unmaps the region, and drops
    it from the RIV tables, the fat runtime and — if it holds this
    region — the one-entry [lastID]/[lastAddr] fat-pointer cache (an
    unobserved bookkeeping write, like the manager's image copies). *)

val close_all : t -> unit
val region : t -> Nvmpi_addr.Kinds.Rid.t -> Nvmpi_nvregion.Region.t option
val region_exn : t -> Nvmpi_addr.Kinds.Rid.t -> Nvmpi_nvregion.Region.t

val region_of_addr :
  t -> Nvmpi_addr.Kinds.Vaddr.t -> Nvmpi_nvregion.Region.t option

val rid_of_addr_exn :
  t -> Nvmpi_addr.Kinds.Vaddr.t -> Nvmpi_addr.Kinds.Rid.t
(** Region ID of the open region containing the address.
    @raise Invalid_argument if no open region contains it. *)

val set_based_region : t -> Nvmpi_addr.Kinds.Rid.t -> unit
(** Selects the region whose base the based-pointer representation uses
    as its (register-resident) base variable. *)

(** {1 Simulated DRAM} *)

val dram_alloc : t -> ?align:int -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** Bump-allocates volatile simulated memory (never persisted). *)

val lastid_addr : t -> Nvmpi_addr.Kinds.Vaddr.t
val lastaddr_addr : t -> Nvmpi_addr.Kinds.Vaddr.t
(** DRAM addresses of the fat-pointer-cache globals. *)

(** {1 Shorthands} *)

val load64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val store64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
val alu : t -> int -> unit
val cycles : t -> int
val is_nvm : t -> Nvmpi_addr.Kinds.Vaddr.t -> bool

(** {1 Observability} *)

val metrics : t -> Nvmpi_obs.Metrics.t

val bump : t -> Cell.t -> unit
(** [bump t c] increments the registry counter named by [c],
    registering it on the first bump. *)
