(** A simulated byte-addressable virtual address space.

    This stands in for the native virtual memory the paper's C/C++
    prototype manipulates directly. Memory is demand-paged: backing pages
    are materialized on first touch, but only inside ranges registered
    with {!map} — any access outside a mapped range raises {!Fault},
    which is how the tests detect dangling (position-dependent) pointers
    after a region moves.

    Every load and store is reported to registered observers; the timing
    model ({!module:Nvmpi_cachesim}) attaches itself as an observer to
    charge cycles organically. *)

type t

type observer = write:bool -> addr:int -> size:int -> unit
(** One memory access as seen on the simulated bus, delivered as three
    unboxed arguments — no record or variant is allocated per access.
    [write] is [true] for a store; [size] is in bytes (1, 2, 4 or 8 for
    typed accesses, up to a page for bulk-transfer chunks). The address
    is deliberately a raw [int] — observers (the cache model) operate
    below the typed discipline, where every word is untyped bit
    traffic. *)

exception Fault of { addr : int; size : int; reason : string }
(** Raised on an access to unmapped memory or a misaligned access. *)

val create : ?page_bits:int -> ?metrics:Nvmpi_obs.Metrics.t -> unit -> t
(** Fresh, empty address space. [page_bits] defaults to 12 (4 KiB pages).
    Every load and store increments [mem.loads] / [mem.stores] in
    [metrics] (a private registry if none is given). *)

val page_size : t -> int

(** {1 Mappings} *)

val map : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> size:int -> unit
(** [map t ~addr ~size] makes the byte range [[addr, addr+size)]
    accessible. The range is rounded outward to page boundaries. Raises
    [Invalid_argument] if it overlaps an existing mapping. *)

val unmap : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> unit
(** [unmap t ~addr] removes the mapping that was created at exactly
    [addr] and drops its backing pages. Raises [Invalid_argument] if no
    mapping starts at [addr]. *)

val is_mapped : t -> Nvmpi_addr.Kinds.Vaddr.t -> bool
(** [is_mapped t a] is [true] iff address [a] falls inside a mapped
    range. *)

val mappings : t -> (Nvmpi_addr.Kinds.Vaddr.t * int) list
(** All mapped ranges as [(addr, size)] pairs, sorted by address
    (page-rounded). *)

(** {1 Observers} *)

val add_observer : t -> observer -> unit
(** Registers a callback invoked on every load and store, after the
    access has been validated. Registration is O(1) amortized; a memory
    with a single observer (the common case: the timing model) pays one
    direct closure call per access. *)

val observed : t -> bool -> unit
(** [observed t false] temporarily disables observer notification (used
    when the harness performs bookkeeping accesses that should not be
    charged by the timing model); [observed t true] re-enables it. *)

(** {1 Typed accesses}

    All accesses must be naturally aligned ([addr] a multiple of the
    access size), which guarantees they never straddle a page. 64-bit
    stores accept any native [int] (including negative values, used by
    off-holder pointers for backward offsets); loads return exactly the
    stored [int]. *)

val load8 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val load16 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val load32 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val load64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val store8 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
val store16 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
val store32 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
val store64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit

val load_sized : t -> size:int -> Nvmpi_addr.Kinds.Vaddr.t -> int
(** Dispatches to [load8/16/32/64] on [size]. *)

val store_sized : t -> size:int -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit

(** {1 Bulk transfers}

    Bulk transfers are observed as a sequence of 8-byte (then byte-sized)
    accesses. *)

val blit_from_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> bytes -> unit
(** Copies an OCaml [bytes] into simulated memory at [addr]. *)

val blit_to_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> bytes
(** Copies [len] bytes of simulated memory starting at [addr] out into a
    fresh OCaml [bytes]. *)

val fill : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> char -> unit

(** {1 Debug port}

    Raw access below the access pipeline: no observers fire and no
    counters move. The fault-injection harness uses these
    to snapshot line contents at flush time and to overwrite live memory
    with a materialized crash image; they must never stand in for a
    program access. *)

val peek_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> bytes
(** [peek_bytes t ~addr ~len] copies [len] bytes out without observing
    or materializing pages (untouched mapped pages read as zeros).
    Raises {!Fault} if the range leaves mapped memory. *)

val poke_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> bytes -> unit
(** [poke_bytes t ~addr b] overwrites simulated memory with [b] without
    observing. Raises {!Fault} if the range leaves mapped memory. *)
