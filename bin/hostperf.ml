(* Host-time measurements of the simulator itself, behind [nvmpi perf],
   [nvmpi bechamel] and the ["deref_ns_per_op"] object of
   [nvmpi bench --wall]. Everything here is host wall-clock: nothing
   reads or perturbs simulated cycles, and nothing is ever gated
   (docs/PERF.md). *)

open Nvmpi_experiments

(* Bechamel micro-benchmarks: host-side cost of one simulated pointer
   load under each representation (one Test.make per representation),
   and of one traversal per structure. These measure the simulator
   itself, complementing the simulated-cycle tables — which is why
   they are not part of the Suite and never appear in JSON snapshots:
   host nanoseconds are not deterministic. *)
let bechamel_suite () =
  let open Bechamel in
  let module Machine = Core.Machine in
  let module Region = Core.Region in
  let load_test kind =
    let store = Core.Store.create () in
    let m = Machine.create ~seed:1 ~store () in
    let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
    if kind = Core.Repr.Based then Machine.set_based_region m (Region.rid r);
    let (module P) = Core.Repr.m kind in
    let holder = Region.alloc r P.slot_size in
    let target = Region.alloc r 64 in
    P.store m ~holder target;
    Test.make ~name:(Core.Repr.to_string kind)
      (Staged.stage (fun () -> ignore (P.load m ~holder)))
  in
  let traverse_test structure =
    let store = Core.Store.create () in
    let m = Machine.create ~seed:1 ~store () in
    let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 24)) in
    let node =
      Nvmpi_structures.Node.make m
        ~mode:(Nvmpi_structures.Node.Plain [| r |])
        ~payload:32
    in
    let inst = Instance.create structure Core.Repr.Riv node ~name:"bench" in
    Array.iter (fun k -> inst.Instance.insert k) (Workload.keys ~n:1000 ~seed:3);
    Test.make
      ~name:("traverse-" ^ Instance.structure_name structure)
      (Staged.stage (fun () -> ignore (inst.Instance.traverse ())))
  in
  (* One full dereference — translate the stored pointer, then read 8
     bytes through the resulting absolute address. Unlike pointer-load
     this includes the data access the translation exists to serve, so
     it is the host-side cost of the simulator's per-deref fast path
     (TLB'd page lookup + single-observer dispatch + L1 hit), through
     the fused [Core.Engine.deref]. *)
  let deref_test kind =
    let store = Core.Store.create () in
    let m = Machine.create ~seed:1 ~store () in
    let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
    if kind = Core.Repr.Based then Machine.set_based_region m (Region.rid r);
    let holder = Region.alloc r (Core.Repr.slot_size kind) in
    let target = Region.alloc r 64 in
    Core.Engine.store kind m ~holder target;
    Test.make ~name:(Core.Repr.to_string kind)
      (Staged.stage (fun () -> ignore (Core.Engine.deref kind m ~holder)))
  in
  let tests =
    [
      Test.make_grouped ~name:"pointer-load" ~fmt:"%s/%s"
        (List.map load_test Core.Repr.all);
      Test.make_grouped ~name:"single-deref" ~fmt:"%s/%s"
        (List.map deref_test Core.Repr.all);
      Test.make_grouped ~name:"riv-traversal" ~fmt:"%s/%s"
        (List.map traverse_test Instance.structures);
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Bechamel.Measure.run |]
  in
  Printf.printf "\n== Bechamel micro-benchmarks (host ns per simulated op) ==\n";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) analyzed [] in
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-36s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n" name)
        (List.sort compare rows))
    tests;
  print_newline ()

(* A host-nanosecond profile of the simulator's access hot path: raw
   loads/stores with no observers (the Memsim fast path alone), the same
   accesses with the timing model attached (the common configuration for
   every experiment), and the full faultsim pipeline with an armed
   tracker. All numbers are host wall-clock — nothing here reads or
   perturbs simulated cycles. *)
let perf_main ~ops:n =
  let module Memsim = Nvmpi_memsim.Memsim in
  let module Vaddr = Nvmpi_addr.Kinds.Vaddr in
  let module Wall = Nvmpi_parsweep.Wall in
  let measure name f =
    f (n / 100);
    (* warm-up: materialize pages, settle caches *)
    let (), ns = Wall.time (fun () -> f n) in
    Printf.printf "  %-44s %7.1f ns/op\n%!" name (float_of_int ns /. float_of_int n)
  in
  let base = 0x100000 in
  let page = 4096 in
  let fresh_mem () =
    let mem = Memsim.create () in
    Memsim.map mem ~addr:(Vaddr.v base) ~size:(4 * page);
    mem
  in
  (* Sequential loads inside one page: every access hits the one-entry
     page TLB. The 0x7f mask keeps 128 slots of 8 bytes in play. *)
  let seq_addr i = Vaddr.v (base + (i land 0x7f) * 8) in
  (* Alternating pages: every access misses the TLB and pays the
     Hashtbl lookup. *)
  let alt_addr i = Vaddr.v (base + (i land 1) * page) in
  Printf.printf "== simulator hot-path profile (%d ops per row, host ns) ==\n" n;
  let mem = fresh_mem () in
  measure "load64, no observers, same page (TLB hit)" (fun k ->
      for i = 0 to k - 1 do
        ignore (Memsim.load64 mem (seq_addr i))
      done);
  measure "load64, no observers, alternating pages" (fun k ->
      for i = 0 to k - 1 do
        ignore (Memsim.load64 mem (alt_addr i))
      done);
  measure "store64, no observers, same page" (fun k ->
      for i = 0 to k - 1 do
        Memsim.store64 mem (seq_addr i) i
      done);
  let mem_t = fresh_mem () in
  let clock = Nvmpi_cachesim.Clock.create () in
  let timing =
    Nvmpi_cachesim.Timing.create ~clock ~is_nvm:(fun _ -> false) ()
  in
  Nvmpi_cachesim.Timing.attach timing mem_t;
  measure "load64, timing attached, same page (L1 hit)" (fun k ->
      for i = 0 to k - 1 do
        ignore (Memsim.load64 mem_t (seq_addr i))
      done);
  measure "store64, timing attached, same page" (fun k ->
      for i = 0 to k - 1 do
        Memsim.store64 mem_t (seq_addr i) i
      done);
  let module Machine = Core.Machine in
  let module Region = Core.Region in
  let store = Core.Store.create () in
  let m = Machine.create ~seed:1 ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
  let buf = Region.alloc r 1024 in
  let tracker = Nvmpi_faultsim.Tracker.attach m in
  Nvmpi_faultsim.Tracker.arm tracker;
  measure "store64, machine + armed tracker" (fun k ->
      for i = 0 to k - 1 do
        Memsim.store64 m.Machine.mem (Vaddr.add buf ((i land 0x7f) * 8)) i
      done);
  Printf.printf
    "  (tracker rows grow the event log; re-run perf rather than \
     comparing across --ops values)\n"

(* Per-representation single-dereference cost in host nanoseconds,
   measured with plain deterministic loops over [Core.Engine.deref].
   This backs the ["deref_ns_per_op"] object of the --wall JSON section:
   unlike the bechamel estimates (sampling-based, and implausibly
   inflated on some virtualized hosts), a fixed-count loop over the
   fused path divides two monotonic-clock readings — crude, but honest
   and reproducible enough to track the fused path's regression budget
   per representation. *)
let deref_ns_per_op () =
  let module Machine = Core.Machine in
  let module Region = Core.Region in
  let module Wall = Nvmpi_parsweep.Wall in
  let ops = 2_000_000 in
  List.map
    (fun kind ->
      let store = Core.Store.create () in
      let m = Machine.create ~seed:1 ~store () in
      let r =
        Machine.open_region m (Machine.create_region m ~size:(1 lsl 20))
      in
      if kind = Core.Repr.Based then
        Machine.set_based_region m (Region.rid r);
      let holder = Region.alloc r (Core.Repr.slot_size kind) in
      let target = Region.alloc r 64 in
      Core.Engine.store kind m ~holder target;
      let loop k =
        for _ = 1 to k do
          ignore (Core.Engine.deref kind m ~holder)
        done
      in
      loop (ops / 10);
      let (), ns = Wall.time (fun () -> loop ops) in
      (Core.Repr.to_string kind, float_of_int ns /. float_of_int ops))
    Core.Repr.all
