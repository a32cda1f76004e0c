(* The conformance harness testing itself: trace round-trips, engine
   determinism and coverage, the acceptance-critical injected-bug
   demonstration (an off-by-8 RIV copy must be caught and shrunk to a
   tiny repro), and the NVC evaluator checked against the same oracle
   the nine representations answer to. *)

module Trace = Nvmpi_conform.Trace
module Gen = Nvmpi_conform.Gen
module Model = Nvmpi_conform.Model
module Exec = Nvmpi_conform.Exec
module Engine = Nvmpi_conform.Engine
module Shrink = Nvmpi_conform.Shrink
module Repr = Core.Repr
module Machine = Core.Machine
module Store = Core.Store
module Vaddr = Core.Kinds.Vaddr
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json
module Lang = Nvmpi_lang.Lang

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Traces and their s-expression form *)

let arb_trace =
  QCheck.make ~print:Trace.to_string (fun st -> Gen.trace_rand st)

let prop_sexp_roundtrip =
  QCheck.Test.make ~name:"trace sexp round-trips" ~count:200 arb_trace
    (fun tr -> Trace.of_string (Trace.to_string tr) = Ok tr)

let prop_generated_traces_valid =
  QCheck.Test.make ~name:"generated traces are well-formed" ~count:200
    arb_trace Trace.valid

let test_sexp_rejects_garbage () =
  let bad s =
    match Trace.of_string s with Ok _ -> false | Error _ -> true
  in
  check_bool "not a sexp" true (bad "(trace");
  check_bool "not a trace" true (bad "(remap 0)");
  check_bool "trailing input" true
    (bad "(trace (mseed 1) (slots 1) (objs 1 0) (structures) (ops)) x");
  check_bool "unknown op" true
    (bad "(trace (mseed 1) (slots 1) (objs 1 0) (structures) (ops (poke 3)))")

let test_gen_is_pure () =
  for i = 0 to 9 do
    let a = Gen.trace ~seed:7 ~index:i () in
    let b = Gen.trace ~seed:7 ~index:i () in
    check_bool "same seed+index, same trace" true (a = b)
  done;
  check_bool "different indices differ" true
    (Gen.trace ~seed:7 ~index:0 () <> Gen.trace ~seed:7 ~index:1 ())

(* Engine: clean run, coverage, parallel determinism *)

let engine_traces = 25

let report_jobs jobs =
  Engine.run ~jobs ~seed:42 ~traces:engine_traces ()

let test_engine_clean_and_covering () =
  let r = report_jobs 1 in
  check "no divergences on seed 42" 0 (List.length r.Engine.failures);
  check_bool "some traces remap" true (r.Engine.traces_with_remap > 0);
  check_bool "some traces don't" true
    (r.Engine.traces_with_remap < engine_traces);
  List.iter
    (fun k ->
      let n = List.assoc (Repr.to_string k) r.Engine.repr_traces in
      check_bool (Repr.to_string k ^ " exercised") true (n > 0);
      if k = Repr.Normal then
        check "normal skips remap traces"
          (engine_traces - r.Engine.traces_with_remap)
          n
      else check (Repr.to_string k ^ " runs everything") engine_traces n)
    Repr.all;
  check "conform.traces counter" engine_traces
    (List.assoc "conform.traces" r.Engine.counters)

let test_engine_deterministic_across_jobs () =
  let render r = Json.to_string (Engine.report_to_json r) in
  let r1 = render (report_jobs 1) in
  let r2 = render (report_jobs 2) in
  check_str "jobs 1 = jobs 2" r1 r2;
  check_str "rerun is byte-identical" r1 (render (report_jobs 1))

let test_engine_clean_under_traverse () =
  (* Satellite: the whole conformance sweep — structure inserts and
     removes included — re-run on machines created with link-and-persist
     durability (docs/DURABLE.md). Durability actions must never change
     an observable, so the report is as clean as the eager one. *)
  let r =
    Engine.run ~jobs:1 ~durability:Traverse ~seed:42 ~traces:engine_traces ()
  in
  check "no divergences under traverse durability" 0
    (List.length r.Engine.failures);
  check "conform.traces counter" engine_traces
    (List.assoc "conform.traces" r.Engine.counters)

(* What the structures, the kvstore, the object-store heap and the
   snapshot granularity pick from their machine's durability — the one
   switch; none of them takes an argument that could contradict it. *)
let durability_picks m =
  let module Node = Nvmpi_structures.Node in
  let module Kvstore = Nvmpi_apps.Kvstore in
  let module Objstore = Nvmpi_tx.Objstore in
  let module Snapshot = Nvmpi_snapshot.Snapshot in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
  let node = Node.make m ~mode:(Node.Plain [| r |]) ~payload:16 in
  (* The snapshot's pages first: the object store claims the rest. *)
  let snap = Snapshot.create m r () in
  let os = Objstore.create m r () in
  let created = Kvstore.create os ~repr:Repr.Riv ~name:"kv" () in
  let attached = Kvstore.attach os ~repr:Repr.Riv ~name:"kv" in
  let path kv =
    match Kvstore.write_path kv with `Tx -> "tx" | `Plain -> "plain"
  in
  Printf.sprintf "%s/%s/%s/%s/%s"
    (if node.Node.traverse then "traverse" else "eager")
    (path created) (path attached)
    (match Objstore.heap_kind os with
    | `Palloc -> "palloc"
    | `Freelist -> "freelist")
    (Snapshot.granularity_to_string (Snapshot.granularity snap))

let test_durability_from_machine () =
  let machine durability =
    Machine.create ~seed:3 ~durability ~store:(Store.create ()) ()
  in
  List.iter
    (fun (d, want) ->
      check_str (Core.Durability.to_string d) want
        (durability_picks (machine d)))
    [
      (Core.Durability.Eager, "eager/tx/tx/palloc/line");
      (Traverse, "traverse/tx/tx/palloc/line");
      (Snapshot_line, "eager/plain/plain/freelist/line");
      (Snapshot_page, "eager/plain/plain/freelist/page");
    ];
  (* Two machines with different disciplines in one process: each
     component follows its own machine, whatever was created last. *)
  let a = machine Traverse in
  let b = machine Snapshot_page in
  check_str "traverse machine after a snapshot machine"
    "traverse/tx/tx/palloc/line" (durability_picks a);
  check_str "snapshot machine after a traverse node"
    "eager/plain/plain/freelist/page" (durability_picks b);
  check_str "default machine" "eager/tx/tx/palloc/line"
    (durability_picks (Machine.create ~seed:3 ~store:(Store.create ()) ()))

let test_check_trace_replay () =
  (* A handwritten repro through the same entry --replay uses. *)
  let src =
    "(trace (mseed 5) (slots 2) (objs 2 1) (structures list hash)\n\
    \ (ops (pstore 0 (obj 2)) (remap 0) (ins list 3) (ins hash 3)\n\
    \ (pload 0) (del hash 3) (dig list) (dig hash) (pstore 0 null)\n\
    \ (pload 0)))"
  in
  match Trace.of_string src with
  | Error e -> Alcotest.failf "repro did not parse: %s" e
  | Ok tr ->
      check "replay is clean" 0 (List.length (Engine.check_trace ~index:(-1) tr))

(* The injected bug: a scratch copy of RIV whose store lands 8 bytes
   past the intended target. The harness must notice (the decoded load
   is off the object table) and shrink the repro to a handful of ops. *)

module Buggy_riv : Core.Repr_sig.S = struct
  include Core.Riv

  let store m ~holder target =
    let target =
      if Vaddr.is_null target then target else Vaddr.add target 8
    in
    Core.Riv.store m ~holder target
end

let buggy_run tr = Exec.run ~repr:(module Buggy_riv) ~kind:Repr.Riv tr

let buggy_diverges tr = Engine.diverges tr Repr.Riv (buggy_run tr)

let test_injected_bug_caught_and_shrunk () =
  (* Plain pointer traces: the bug is in the store path, structures
     would only add noise (and a corrupted repr can derail walks). *)
  let rec find i =
    if i >= 50 then Alcotest.fail "no trace tripped the injected bug"
    else
      let tr = Gen.trace ~structures:false ~seed:2024 ~index:i () in
      if buggy_diverges tr then tr else find (i + 1)
  in
  let tr = find 0 in
  let metrics = Metrics.create () in
  let shrunk = Shrink.minimize ~metrics ~still_fails:buggy_diverges tr in
  check_bool "shrunk repro still diverges" true (buggy_diverges shrunk);
  check_bool
    (Printf.sprintf "shrunk to <= 12 ops (got %d: %s)"
       (List.length shrunk.Trace.ops) (Trace.to_string shrunk))
    true
    (List.length shrunk.Trace.ops <= 12);
  check_bool "shrinking was measured" true
    (Metrics.get metrics "conform.shrink_steps" > 0);
  check_bool "repro replays from its sexp" true
    (Trace.of_string (Trace.to_string shrunk) = Ok shrunk);
  (* And the detail pinpoints the first diverging op. *)
  match Engine.compare_to_model shrunk Repr.Riv (buggy_run shrunk) with
  | None -> Alcotest.fail "expected a divergence detail"
  | Some d -> check_bool "detail names an op" true (String.length d > 0)

let test_unmodified_riv_is_clean () =
  (* The same traces through the real RIV: the finder above must owe
     its hits to the injected bug, not to the trace population. *)
  for i = 0 to 9 do
    let tr = Gen.trace ~structures:false ~seed:2024 ~index:i () in
    check_bool "clean RIV conforms" false
      (Engine.diverges tr Repr.Riv
         (Exec.run ~repr:(module Core.Riv) ~kind:Repr.Riv tr))
  done

(* The NVC evaluator against the same oracle (satellite: lang layer).

   Each program's final heap is predicted by a hand-mapped model trace:
   slot i models node i's [next] field, obj o models node o. The
   program's printed walk must equal the walk of the model's final
   slot states. *)

let machine () =
  let store = Store.create () in
  (store, Machine.create ~seed:1 ~store ())

let run_lang src =
  let _, m = machine () in
  Lang.run_string m src

let output_exn src =
  match run_lang src with
  | Ok o -> o.Lang.Eval.output
  | Error e -> Alcotest.failf "program failed: %s" e

(* Walk the model's final heap: follow slot o (= node o's next) from
   [start], collecting node keys (key of node o is o + 1). *)
let model_walk obs ~loads ~start =
  let next = Array.make (List.length loads) None in
  List.iteri
    (fun li (op_idx, slot) ->
      ignore li;
      match obs.(op_idx) with
      | Model.Ptr v -> next.(slot) <- v
      | o -> Alcotest.failf "expected a pload obs, got %s" (Model.obs_to_string o))
    loads;
  let b = Buffer.create 16 in
  let rec go = function
    | None -> ()
    | Some o ->
        Buffer.add_string b (string_of_int (o + 1));
        Buffer.add_char b '\n';
        go next.(o)
  in
  go (Some start);
  Buffer.contents b

let test_lang_chain_matches_model () =
  (* Three persistentI-linked nodes; the program walks from node 3. *)
  let tr =
    {
      Trace.mseed = 1;
      slots = 3;
      objs0 = 3;
      objs1 = 0;
      structures = [];
      ops =
        [
          Trace.Pstore (0, None);      (* node1.next = null *)
          Trace.Pstore (1, Some 0);    (* node2.next = node1 *)
          Trace.Pstore (2, Some 1);    (* node3.next = node2 *)
          Trace.Pload 0; Trace.Pload 1; Trace.Pload 2;
        ];
    }
  in
  (* persistentI is the off-holder encoding: intra-region only. *)
  let obs =
    Model.run ~caps:{ Model.cross_region = false } ~payload:Exec.payload tr
  in
  let expected =
    model_walk obs ~loads:[ (3, 0); (4, 1); (5, 2) ] ~start:2
  in
  check_str "model predicts the walk" "3\n2\n1\n" expected;
  check_str "evaluator agrees" expected
    (output_exn
       ("struct node { persistentI struct node *next; int key; }\n"
      ^ "int main() { int r = region_create(65536); region_open(r);\n\
         persistent struct node *n1 = new(r, struct node);\n\
         persistent struct node *n2 = new(r, struct node);\n\
         persistent struct node *n3 = new(r, struct node);\n\
         n1->key = 1; n2->key = 2; n3->key = 3;\n\
         n1->next = null; n2->next = n1; n3->next = n2;\n\
         persistent struct node *cur = n3;\n\
         while (cur != null) { print(cur->key); cur = cur->next; }\n\
         return 0; }"))

let cross_defs =
  "struct cell { persistentI struct cell *i; persistentX struct cell *x;\n\
  \              int v; }\n"

let cross_trace =
  (* One slot in region 0, target object in region 1. *)
  {
    Trace.mseed = 1;
    slots = 1;
    objs0 = 1;
    objs1 = 1;
    structures = [];
    ops = [ Trace.Pstore (0, Some 1); Trace.Pload 0 ];
  }

let test_lang_cross_region_i_matches_model () =
  (* The model under off-holder caps rejects the store and leaves the
     slot null — exactly the evaluator's Section 4.4 dynamic check. *)
  let obs =
    Model.run ~caps:{ Model.cross_region = false } ~payload:Exec.payload
      cross_trace
  in
  check_str "model rejects the store" "raised" (Model.obs_to_string obs.(0));
  check_str "slot stays null" "null" (Model.obs_to_string obs.(1));
  match
    run_lang
      (cross_defs
     ^ "int main() { int r1 = region_create(65536); region_open(r1);\n\
        int r2 = region_create(65536); region_open(r2);\n\
        persistent struct cell *a = new(r1, struct cell);\n\
        persistent struct cell *b = new(r2, struct cell);\n\
        a->i = b;\n\
        return 0; }")
  with
  | Ok _ -> Alcotest.fail "evaluator accepted a cross-region persistentI store"
  | Error _ -> ()

let test_lang_cross_region_x_matches_model () =
  (* Under cross-region caps the same trace is clean and the load
     resolves to the region-1 object; persistentX must deliver it. *)
  let obs =
    Model.run ~caps:{ Model.cross_region = true } ~payload:Exec.payload
      cross_trace
  in
  check_str "model accepts the store" "done" (Model.obs_to_string obs.(0));
  check_str "load finds the region-1 object" "obj1"
    (Model.obs_to_string obs.(1));
  check_str "evaluator reaches it too" "200\n"
    (output_exn
       (cross_defs
      ^ "int main() { int r1 = region_create(65536); region_open(r1);\n\
         int r2 = region_create(65536); region_open(r2);\n\
         persistent struct cell *a = new(r1, struct cell);\n\
         persistent struct cell *b = new(r2, struct cell);\n\
         b->v = 200;\n\
         a->x = b;\n\
         persistent struct cell *p = a->x;\n\
         print(p->v); return 0; }"))

let () =
  Alcotest.run "conform"
    [
      ( "traces",
        [
          QCheck_alcotest.to_alcotest prop_sexp_roundtrip;
          QCheck_alcotest.to_alcotest prop_generated_traces_valid;
          Alcotest.test_case "parser rejects garbage" `Quick
            test_sexp_rejects_garbage;
          Alcotest.test_case "generation is pure" `Quick test_gen_is_pure;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clean and covering" `Quick
            test_engine_clean_and_covering;
          Alcotest.test_case "clean under traverse durability" `Quick
            test_engine_clean_under_traverse;
          Alcotest.test_case "durability comes from the machine" `Quick
            test_durability_from_machine;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_engine_deterministic_across_jobs;
          Alcotest.test_case "replay a handwritten repro" `Quick
            test_check_trace_replay;
        ] );
      ( "bug-injection",
        [
          Alcotest.test_case "off-by-8 RIV caught and shrunk" `Quick
            test_injected_bug_caught_and_shrunk;
          Alcotest.test_case "unmodified RIV is clean" `Quick
            test_unmodified_riv_is_clean;
        ] );
      ( "lang-vs-model",
        [
          Alcotest.test_case "persistentI chain" `Quick
            test_lang_chain_matches_model;
          Alcotest.test_case "cross-region persistentI" `Quick
            test_lang_cross_region_i_matches_model;
          Alcotest.test_case "cross-region persistentX" `Quick
            test_lang_cross_region_x_matches_model;
        ] );
    ]
