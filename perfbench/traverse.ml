(* The Figure 12 kernel: the paper's four structures under all nine
   representations, populated in set-up, then timed full traversals.
   Swizzling pays its swizzle and unswizzle passes around every timed
   traversal (the paper's single-use setting). *)

module Machine = Core.Machine
module Metrics = Core.Metrics
module Repr = Core.Repr
module Region = Core.Region
module Instance = Nvmpi_experiments.Instance
module Node = Nvmpi_structures.Node
module Wall = Nvmpi_parsweep.Wall

let elems = 10_000
let payload = 32
(* Rounds of all four structures behind the [sim_*] metrics. *)
let sim_rounds = 2

(* Generous per-element bytes for every structure in one region; the
   trie may spend one node per letter of its (at most 7-letter) word. *)
let region_size repr =
  let slot = Repr.slot_size repr in
  let node slots = (slots * slot) + 16 + payload in
  let per_elem = node 1 + node 2 + node 1 + (8 * node 26) in
  let bytes = (elems * per_elem) + (Instance.default_buckets * 16) + 65536 in
  (bytes + 4095) land lnot 4095

type trav = {
  structure : Instance.structure;
  nodes : int;
  checksum : int;
  cycles : int;
}

type repr_run = {
  repr : Repr.kind;
  setup_s : float;
  prefix : trav list;  (* the first [sim_rounds] rounds, in order *)
  travs : trav list;  (* every timed traversal, for the oracle *)
  delta : (string * int) list;
  plain : Outcome.blocks list;  (* one per structure *)
  traced : Outcome.blocks list;
}

let run_repr ~keys ~repr ~slice_ns ~tracer ~seed =
  let t_setup = Wall.now_ns () in
  let store = Core.Store.create () in
  let machine = Machine.create ~seed:(seed land 0xFFFFFF) ~store () in
  let region =
    Machine.open_region machine
      (Machine.create_region machine ~size:(region_size repr))
  in
  if repr = Repr.Based then
    Machine.set_based_region machine (Region.rid region);
  let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload in
  let insts =
    List.map
      (fun s ->
        let name = Instance.structure_name s in
        let inst = Instance.create s repr node ~name in
        Array.iter inst.Instance.insert keys;
        (* A freshly opened swizzled structure is in its persisted form. *)
        if repr = Repr.Swizzle then inst.Instance.unswizzle ();
        (s, inst))
      Instance.structures
  in
  let setup_s = Wall.ns_to_s (Wall.now_ns () - t_setup) in
  let traverse tracer (s, inst) =
    let c0 = Machine.cycles machine in
    let name =
      Printf.sprintf "structures.%s.traverse" (Instance.structure_name s)
    in
    let span = Option.map (fun tr -> Tracer.start tr machine name) tracer in
    if repr = Repr.Swizzle then inst.Instance.swizzle ();
    let nodes, checksum = inst.Instance.traverse () in
    if repr = Repr.Swizzle then inst.Instance.unswizzle ();
    (match (tracer, span) with
    | Some tr, Some sp -> Tracer.finish tr machine ~work:nodes sp
    | _ -> ());
    { structure = s; nodes; checksum; cycles = Machine.cycles machine - c0 }
  in
  let metrics = Machine.metrics machine in
  let before = Metrics.snapshot metrics in
  let blocks () =
    List.map
      (fun (st, _) ->
        Outcome.blocks (Repr.to_string repr ^ "/" ^ Instance.structure_name st))
      insts
  in
  let plain = blocks () and traced = blocks () in
  let travs = ref [] in
  (* A round is a full traversal of each structure; each traversal is
     one block of its structure's kind. *)
  let round bs tracer =
    List.iter2
      (fun b inst ->
        Outcome.record b machine (fun () ->
            let t = traverse tracer inst in
            travs := t :: !travs;
            t.nodes))
      bs insts
  in
  let deadline = Wall.now_ns () + slice_ns in
  (* As in [Kvload]: traced prefix rounds stay out of the comparison. *)
  let first = match tracer with None -> plain | Some _ -> blocks () in
  for _ = 1 to sim_rounds do
    round first tracer
  done;
  let prefix = List.rev !travs in
  let toggle = ref false in
  while Wall.now_ns () < deadline do
    (match tracer with
    | Some _ when !toggle -> round traced tracer
    | _ -> round plain None);
    toggle := not !toggle
  done;
  let delta = Metrics.diff ~before ~after:(Metrics.snapshot metrics) in
  { repr; setup_s; prefix; travs = !travs; delta; plain; traced }

let get delta name = Option.value ~default:0 (List.assoc_opt name delta)
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let run ~seed ~seconds ~tracer =
  let keys =
    Gen.distinct_keys (Gen.rng ~seed ~tag:3) ~n:elems ~bound:(1 lsl 17)
  in
  let slice_ns = seconds * 1_000_000_000 / List.length Repr.all in
  let runs =
    List.map
      (fun repr ->
        let r = run_repr ~keys ~repr ~slice_ns ~tracer ~seed in
        Gc.compact ();
        r)
      Repr.all
  in
  let base = List.find (fun r -> r.repr = Repr.Normal) runs in
  let base_of s = List.find (fun t -> t.structure = s) base.prefix in
  (* Oracle: one checksum per structure across all representations, and
     the normal-pointer node count on every traversal. *)
  let bad t =
    let b = base_of t.structure in
    t.nodes <> b.nodes || t.checksum <> b.checksum
    || (t.structure <> Instance.Trie && t.nodes <> elems)
  in
  let cycles_of r s =
    sum (fun t -> if t.structure = s then t.cycles else 0) r.prefix
  in
  let sim =
    List.map
      (fun r ->
        let per_node =
          Array.of_list
            (List.map (fun t -> Stats.ratio t.cycles t.nodes) r.prefix)
        in
        ( r.repr,
          {
            Outcome.p50 = Stats.percentile per_node 50;
            p99 = Stats.percentile per_node 99;
            per_op =
              Stats.ratio
                (sum (fun t -> t.cycles) r.prefix)
                (sum (fun t -> t.nodes) r.prefix);
          } ))
      runs
  in
  let paper =
    List.filter_map
      (fun (k, p) ->
        Option.map
          (fun r ->
            let slow =
              List.map
                (fun s -> Stats.ratio (cycles_of r s) (cycles_of base s))
                Instance.structures
            in
            let n = float_of_int (List.length slow) in
            (List.fold_left ( +. ) 0.0 slow /. n, p))
          (List.find_opt (fun r -> r.repr = k) runs))
      Stats.paper_values
  in
  let repr_ops r =
    sum (fun (b : Outcome.blocks) -> b.ops) (r.plain @ r.traced)
  in
  let ops = sum repr_ops runs in
  let o =
    {
      Outcome.attempted = sum (fun r -> List.length r.travs) runs;
      failed = sum (fun r -> List.length (List.filter bad r.travs)) runs;
      plain = List.concat_map (fun r -> r.plain) runs;
      traced = List.concat_map (fun r -> r.traced) runs;
      setups_s = List.map (fun r -> r.setup_s) runs;
      sim;
      paper;
      traffic =
        [
          ("residency_miss_share", 0.0);
          ("reopens_per_op", 0.0);
          ("evictions_per_op", 0.0);
        ];
      layers = [];
    }
  in
  match tracer with
  | None -> o
  | Some tr ->
      let total name = sum (fun r -> get r.delta name) runs in
      let one k name =
        match List.find_opt (fun r -> r.repr = k) runs with
        | Some r -> Stats.ratio (get r.delta name) (repr_ops r)
        | None -> 0.0
      in
      let per_node s =
        let name = Instance.structure_name s in
        ( Printf.sprintf "structures.%s.traverse_ns_per_node" name,
          Tracer.ns_per_work tr (Printf.sprintf "structures.%s.traverse" name) )
      in
      let layers =
        List.map per_node Instance.structures
        @ Outcome.counter_layers ~total ~one ~ops
        @ Outcome.host_layers o
      in
      { o with layers }
