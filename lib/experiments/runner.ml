module Machine = Core.Machine
module Repr = Core.Repr
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Clock = Nvmpi_cachesim.Clock
module Node = Nvmpi_structures.Node
module Objstore = Nvmpi_tx.Objstore

type mode = Nontx | Tx

type config = {
  structure : Instance.structure;
  repr : Repr.kind;
  elems : int;
  payload : int;
  regions : int;
  mode : mode;
  traversals : int;
  searches : int;
  seed : int;
  timing : Nvmpi_cachesim.Timing_config.t;
  cold : bool;  (* invalidate caches between populate and measurement *)
  durability : Core.Durability.t;
}

let default =
  {
    structure = Instance.List;
    repr = Repr.Normal;
    elems = 10_000;
    payload = 32;
    regions = 1;
    mode = Nontx;
    traversals = 10;
    searches = 0;
    seed = 42;
    timing = Nvmpi_cachesim.Timing_config.default;
    cold = false;
    durability = Core.Durability.Eager;
  }

type measurement = {
  config : config;
  populate_cycles : int;
  measured_cycles : int;
  per_op : float;
  nodes : int;
  checksum : int;
  counters : (string * int) list;
      (* metric deltas over the measured phase only (sorted by name) *)
  machine : Machine.t;
      (* kept so callers can inspect post-run state (RIV phase counters,
         cache statistics) *)
}

let applicable kind ~regions = regions <= 1 || Repr.cross_region kind

(* Upper bound on the bytes one element contributes, used to size
   regions. Trie keys expand to one node per letter (7 letters cover any
   30-bit key under the base-27 encoding). *)
let bytes_per_elem cfg =
  let slot = Repr.slot_size cfg.repr in
  let node =
    match cfg.structure with
    | Instance.List | Instance.Hashset -> slot + 8 + cfg.payload
    | Instance.Btree -> (2 * slot) + 8 + cfg.payload
    | Instance.Trie -> (26 * slot) + 8 + cfg.payload
    | Instance.Dllist -> (2 * slot) + 8 + cfg.payload
    | Instance.Graph ->
        (* vertex + one chain edge per element *)
        (4 * slot) + 8 + cfg.payload
    | Instance.Bplus ->
        (* interior fan-out amortizes; leaves dominate: ~2 words per key
           plus a share of node headers and child slots *)
        32 + (2 * slot)
  in
  let per_node =
    match cfg.mode with
    | Nontx -> node + 8 (* bump-allocator alignment slack *)
    | Tx ->
        (* Wrapped object rounded to 128 B + freelist block header. *)
        ((node + Objstore.header_bytes + Objstore.wrap_unit - 1)
         / Objstore.wrap_unit * Objstore.wrap_unit)
        + 16
  in
  let nodes_per_elem =
    match cfg.structure with Instance.Trie -> 8 | Instance.Bplus -> 2 | _ -> 1
  in
  per_node * nodes_per_elem

let region_size cfg =
  let payload_bytes = bytes_per_elem cfg * cfg.elems / cfg.regions in
  let fixed =
    65536
    + (Instance.default_buckets * 16)
    + (match cfg.mode with Tx -> 512 * 1024 | Nontx -> 0)
  in
  let size = (payload_bytes * 3 / 2) + fixed in
  (* Page-round for tidiness. *)
  (size + 4095) land lnot 4095

let setup cfg =
  if not (applicable cfg.repr ~regions:cfg.regions) then
    invalid_arg
      (Printf.sprintf "Runner: %s does not support %d regions"
         (Repr.to_string cfg.repr) cfg.regions);
  let store = Store.create () in
  let machine =
    Machine.create ~cfg:cfg.timing ~seed:cfg.seed ~durability:cfg.durability
      ~store ()
  in
  let size = region_size cfg in
  let regions =
    Array.init cfg.regions (fun _ ->
        Machine.open_region machine (Machine.create_region machine ~size))
  in
  let mode =
    match cfg.mode with
    | Nontx -> Node.Plain regions
    | Tx ->
        (* Pinned to the legacy freelist: the committed cycle baseline
           (BENCH_seed.json, checked at --tolerance 0) was captured with
           freelist object placement, and the measured phases are
           sensitive to where populate put the nodes. The palloc backend
           is exercised by the churn experiment, the server and the
           faultsim scenarios instead. *)
        Node.Wrapped
          (Array.map
             (fun r -> Objstore.create machine r ~heap:`Freelist ())
             regions)
  in
  if cfg.repr = Repr.Based then
    Machine.set_based_region machine (Region.rid regions.(0));
  let node = Node.make machine ~mode ~payload:cfg.payload in
  (machine, node)

let run cfg =
  let machine, node = setup cfg in
  let inst = Instance.create cfg.structure cfg.repr node ~name:"bench" in
  let keys = Workload.keys ~n:cfg.elems ~seed:cfg.seed in
  let clock = machine.Machine.clock in
  let populate_cycles =
    snd (Clock.delta clock (fun () -> Array.iter (fun k -> inst.Instance.insert k) keys))
  in
  (* A freshly opened swizzle structure starts in its persisted (packed)
     form: population ran in swizzled form, so unswizzle once, untimed. *)
  if cfg.repr = Repr.Swizzle then inst.Instance.unswizzle ();
  let searches = Workload.search_sample ~keys ~n:cfg.searches ~seed:cfg.seed in
  Core.Nvspace.reset_phases machine.Machine.nvspace;
  Nvmpi_cachesim.Timing.reset_stats machine.Machine.timing;
  if cfg.cold then
    Nvmpi_cachesim.Timing.invalidate_caches machine.Machine.timing;
  let nodes = ref 0 and checksum = ref 0 and found = ref 0 in
  let before = Core.Metrics.snapshot (Machine.metrics machine) in
  let (), measured_cycles =
    Clock.delta clock (fun () ->
        if cfg.repr = Repr.Swizzle then inst.Instance.swizzle ();
        for _ = 1 to cfg.traversals do
          let n, sum = inst.Instance.traverse () in
          nodes := n;
          checksum := sum
        done;
        Array.iter
          (fun k -> if inst.Instance.search k then incr found)
          searches;
        if cfg.repr = Repr.Swizzle then inst.Instance.unswizzle ())
  in
  let counters =
    Core.Metrics.diff ~before
      ~after:(Core.Metrics.snapshot (Machine.metrics machine))
  in
  if cfg.searches > 0 && !found <> cfg.searches then
    failwith "Runner.run: a search for an inserted key failed";
  let ops = max 1 (cfg.traversals + if cfg.traversals = 0 then cfg.searches else 0) in
  {
    config = cfg;
    populate_cycles;
    measured_cycles;
    per_op = float_of_int measured_cycles /. float_of_int ops;
    nodes = !nodes;
    checksum = !checksum;
    counters;
    machine;
  }

let slowdown cfg =
  let m = run cfg in
  let base = run { cfg with repr = Repr.Normal } in
  if cfg.traversals > 0 && m.checksum <> base.checksum then
    failwith
      (Printf.sprintf "Runner.slowdown: checksum mismatch (%s vs normal)"
         (Repr.to_string cfg.repr));
  (m, float_of_int m.measured_cycles /. float_of_int base.measured_cycles)
