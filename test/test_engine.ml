(* The per-kind tables against the representation modules they stand
   for: [Engine]'s direct dispatch against the first-class modules of
   [Repr.m], and [Specialized.of_kind] against a runtime [Spec]
   application. Each pair must be observationally identical for every
   representation — same loaded values, same sanctioned faults,
   byte-identical counter registries — so a table entry wired to the
   wrong representation fails here. Also pins the per-kind registry
   tables in Repr against each representation module's own constants. *)

module Repr = Core.Repr
module Engine = Core.Engine
module Machine = Core.Machine
module Store = Core.Store
module Region = Core.Region
module Vaddr = Core.Kinds.Vaddr
module Memsim = Nvmpi_memsim.Memsim
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json
module Node = Nvmpi_structures.Node
module Specialized = Nvmpi_structures.Specialized
module Gen = Nvmpi_conform.Gen
module Exec = Nvmpi_conform.Exec
module CEngine = Nvmpi_conform.Engine
module Instance = Nvmpi_experiments.Instance
module Workload = Nvmpi_experiments.Workload

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Registry tables: Repr's per-kind tables = each module's constants. *)

let test_registry_tables () =
  List.iter
    (fun kind ->
      let (module P : Core.Repr_sig.S) = Repr.m kind in
      let name = Repr.to_string kind in
      Alcotest.(check int)
        (name ^ " slot_size") P.slot_size (Repr.slot_size kind);
      check_bool
        (name ^ " cross_region") P.cross_region (Repr.cross_region kind);
      check_bool
        (name ^ " position_independent") P.position_independent
        (Repr.position_independent kind))
    Repr.all

(* One dereference, two call graphs, two fresh machines: the fused
   [Engine.deref] must load the same value and leave a byte-identical
   counter registry behind as the generic module chain. *)

let deref_world kind =
  let store = Store.create () in
  let metrics = Metrics.create () in
  let m = Machine.create ~seed:11 ~metrics ~store () in
  let rid = Machine.create_region m ~size:(1 lsl 20) in
  let r = Machine.open_region m rid in
  if kind = Repr.Based then Machine.set_based_region m rid;
  let holder = Region.alloc r (Repr.slot_size kind) in
  let target = Region.alloc r 64 in
  Memsim.store64 m.Machine.mem target 0xBEEF;
  (m, metrics, holder, target)

let test_deref_equivalence () =
  List.iter
    (fun kind ->
      let name = Repr.to_string kind in
      let ma, mea, ha, ta = deref_world kind in
      Engine.store kind ma ~holder:ha ta;
      let va = Engine.deref kind ma ~holder:ha in
      let mb, meb, hb, tb = deref_world kind in
      let (module P : Core.Repr_sig.S) = Repr.m kind in
      P.store mb ~holder:hb tb;
      let vb = Memsim.load64 mb.Machine.mem (P.load mb ~holder:hb) in
      Alcotest.(check int) (name ^ " deref value") vb va;
      check_str
        (name ^ " deref counters")
        (Json.to_string (Metrics.to_json meb))
        (Json.to_string (Metrics.to_json mea)))
    Repr.all

(* Cross-region stores: whichever way a representation answers one
   (a Cross_region_store raise or an encoded store), the per-kind
   dispatch must answer it the same way as the module. *)

let cross_region_outcome kind ~staged =
  let store = Store.create () in
  let m = Machine.create ~seed:13 ~store () in
  let rid0 = Machine.create_region m ~size:(1 lsl 20) in
  let rid1 = Machine.create_region m ~size:(1 lsl 20) in
  let r0 = Machine.open_region m rid0 in
  let r1 = Machine.open_region m rid1 in
  if kind = Repr.Based then Machine.set_based_region m rid0;
  let holder = Region.alloc r0 (Repr.slot_size kind) in
  let target = Region.alloc r1 64 in
  let attempt () =
    if staged then begin
      Engine.store kind m ~holder target;
      Engine.load kind m ~holder
    end
    else begin
      let (module P : Core.Repr_sig.S) = Repr.m kind in
      P.store m ~holder target;
      P.load m ~holder
    end
  in
  match attempt () with
  | v -> Printf.sprintf "stored:%b" (Vaddr.equal v target)
  | exception Machine.Cross_region_store _ -> "raised"

let test_cross_region_equivalence () =
  List.iter
    (fun kind ->
      check_str
        (Repr.to_string kind ^ " cross-region outcome")
        (cross_region_outcome kind ~staged:false)
        (cross_region_outcome kind ~staged:true))
    Repr.all

(* Conformance-trace replay: the same generated traces through the
   [of_kind] table and through a runtime [Spec] application of
   [Repr.m kind] (the path conform's buggy-module injection uses) must
   produce identical op observables (loaded values, digests, sanctioned
   raises), identical post-remap snapshots and identical fatal status
   for every applicable representation. *)

let result_to_string (r : Exec.result) =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i o -> Printf.bprintf b "%d:%s\n" i (Exec.obs_to_string o))
    r.Exec.obs;
  List.iter (fun (i, s) -> Printf.bprintf b "snap%d:%s\n" i s) r.Exec.snaps;
  Printf.bprintf b "fatal:%s"
    (match r.Exec.fatal with None -> "-" | Some e -> e);
  Buffer.contents b

let test_trace_replay_equivalence () =
  for index = 0 to 7 do
    let tr = Gen.trace ~seed:42 ~index () in
    List.iter
      (fun kind ->
        check_str
          (Printf.sprintf "trace %d %s" index (Repr.to_string kind))
          (result_to_string (Exec.run ~repr:(Repr.m kind) ~kind tr))
          (result_to_string (Exec.run ~kind tr)))
      (CEngine.applicable tr)
  done

(* Structure workloads through the instance layer: [Instance.create]
   (the [of_kind] entry) and the same constructor over
   [Spec ((val Repr.m kind))] must agree on every traversal result and
   leave byte-identical counter registries, for all nine representations
   and all seven structures. *)

let structure_outcome structure kind ~spec =
  let store = Store.create () in
  let metrics = Metrics.create () in
  let m = Machine.create ~seed:17 ~metrics ~store () in
  let rid = Machine.create_region m ~size:(1 lsl 22) in
  let r = Machine.open_region m rid in
  if kind = Repr.Based then Machine.set_based_region m rid;
  let node = Node.make m ~mode:(Node.Plain [| r |]) ~payload:32 in
  let inst =
    match spec with
    | None -> Instance.create structure kind node ~name:"eq"
    | Some spec -> Instance.of_spec spec structure node ~name:"eq" ~fresh:true
  in
  let keys = Workload.keys ~n:120 ~seed:5 in
  Array.iter (fun k -> inst.Instance.insert k) keys;
  let n, sum = inst.Instance.traverse () in
  let hits =
    Array.fold_left
      (fun a k -> if inst.Instance.search k then a + 1 else a)
      0 keys
  in
  Printf.sprintf "n=%d sum=%d hits=%d counters=%s" n sum hits
    (Json.to_string (Metrics.to_json metrics))

let test_structure_equivalence () =
  List.iter
    (fun structure ->
      List.iter
        (fun kind ->
          let module P = (val Repr.m kind) in
          let spec =
            (module Specialized.Spec (P) : Specialized.S)
          in
          check_str
            (Printf.sprintf "%s/%s"
               (Instance.structure_name structure)
               (Repr.to_string kind))
            (structure_outcome structure kind ~spec:(Some spec))
            (structure_outcome structure kind ~spec:None))
        Repr.all)
    (Instance.structures @ Instance.extension_structures)

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "repr registry tables" `Quick
            test_registry_tables;
          Alcotest.test_case "single deref" `Quick test_deref_equivalence;
          Alcotest.test_case "cross-region outcome" `Quick
            test_cross_region_equivalence;
          Alcotest.test_case "trace replay" `Quick
            test_trace_replay_equivalence;
          Alcotest.test_case "structure workloads" `Quick
            test_structure_equivalence;
        ] );
    ]
