(* The parallel sweep engine: pool semantics, and the determinism
   contract — [--jobs N] must produce byte-identical documents to a
   serial run for both the faultsim sweep and the bench matrix. *)

open Nvmpi_parsweep

let check = Alcotest.check
let check_int = check Alcotest.int

(* {1 Pool} *)

let test_map_order () =
  let tasks = List.init 20 (fun i () -> i * i) in
  let expect = List.init 20 (fun i -> i * i) in
  check (Alcotest.list Alcotest.int) "jobs=1" expect (Pool.map ~jobs:1 tasks);
  check (Alcotest.list Alcotest.int) "jobs=4" expect (Pool.map ~jobs:4 tasks);
  check (Alcotest.list Alcotest.int) "jobs > tasks" expect
    (Pool.map ~jobs:64 tasks);
  check (Alcotest.list Alcotest.int) "empty" [] (Pool.map ~jobs:4 [])

let test_map_side_effects_complete () =
  let hits = Array.make 50 0 in
  let tasks = List.init 50 (fun i () -> hits.(i) <- hits.(i) + 1) in
  ignore (Pool.map ~jobs:4 tasks);
  Array.iteri
    (fun i n -> check_int (Printf.sprintf "task %d ran once" i) 1 n)
    hits

exception Boom of int

let test_map_exception_lowest_index () =
  let tasks =
    List.init 16 (fun i () -> if i = 3 || i = 11 then raise (Boom i) else i)
  in
  (match Pool.map ~jobs:4 tasks with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i ->
      check_int "lowest-indexed failure wins deterministically" 3 i);
  match Pool.map ~jobs:1 tasks with
  | _ -> Alcotest.fail "expected Boom (serial)"
  | exception Boom i -> check_int "serial raises the same" 3 i

let test_chunks () =
  let lst = List.init 13 Fun.id in
  List.iter
    (fun jobs ->
      let cs = Pool.chunks ~jobs lst in
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "concat preserves order (jobs=%d)" jobs)
        lst (List.concat cs);
      check_int
        (Printf.sprintf "at most %d chunks" jobs)
        (min jobs 13) (List.length cs);
      let sizes = List.map List.length cs in
      let mn = List.fold_left min max_int sizes in
      let mx = List.fold_left max 0 sizes in
      if mx - mn > 1 then
        Alcotest.failf "chunk sizes differ by %d (jobs=%d)" (mx - mn) jobs)
    [ 1; 2; 3; 4; 13; 64 ];
  check_int "empty input yields no chunks" 0
    (List.length (Pool.chunks ~jobs:4 []))

(* {1 Wall} *)

let test_wall_monotonic () =
  let a = Wall.now_ns () in
  let b = Wall.now_ns () in
  if b < a then Alcotest.fail "monotonic clock went backwards";
  let (v, ns) = Wall.time (fun () -> 42) in
  check_int "time returns the result" 42 v;
  if ns < 0 then Alcotest.fail "negative elapsed time"

(* {1 Determinism: faultsim sweep} *)

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let sweep_json ~jobs =
  let open Nvmpi_faultsim in
  let metrics = Nvmpi_obs.Metrics.create () in
  (* The selftest doubles ride along: their fault mechanism lives in
     the tracker and must merge as deterministically as real points. *)
  let scenarios = take 4 (Scenario.defaults ()) @ Scenario.selftests () in
  let report =
    Sweep.run ~jobs ~mode:(Sweep.Sampled 10) ~metrics ~seed:7 scenarios
  in
  (Nvmpi_obs.Json.to_string (Sweep.json_of_report report), metrics)

let test_faultsim_parallel_determinism () =
  let serial, m1 = sweep_json ~jobs:1 in
  List.iter
    (fun jobs ->
      let parallel, mj = sweep_json ~jobs in
      check Alcotest.string
        (Printf.sprintf "sweep JSON byte-identical at jobs=%d" jobs)
        serial parallel;
      check Alcotest.string
        (Printf.sprintf "shared metrics registry identical at jobs=%d" jobs)
        (Nvmpi_obs.Json.to_string (Nvmpi_obs.Metrics.to_json m1))
        (Nvmpi_obs.Json.to_string (Nvmpi_obs.Metrics.to_json mj)))
    [ 2; 4 ]

(* {1 Determinism: bench experiment matrix} *)

let bench_json ~jobs =
  let open Nvmpi_experiments in
  let params = { Suite.scale = 0.05; seed = Some 1; wordcount_full = false } in
  let names = [ "fig12"; "breakdown" ] in
  let results = Suite.run_all ~jobs params names in
  (* Compare without the wall section — the only field allowed to
     differ between runs. *)
  Nvmpi_obs.Json.to_string (Suite.snapshot_of params results)

(* Process-wide lazy state (the trie vocabulary) is forced by whichever
   experiment first reaches a trie; with identical experiments on four
   domains they all reach it at once. This must run before anything else
   in this executable builds a trie, or the first use is already past. *)
let test_bench_parallel_first_use () =
  let open Nvmpi_experiments in
  let params = { Suite.scale = 0.05; seed = Some 1; wordcount_full = false } in
  let results = Suite.run_all ~jobs:4 params (List.init 4 (fun _ -> "table1")) in
  let json r = Nvmpi_obs.Json.to_string (Suite.snapshot_of params [ r ]) in
  List.iter
    (fun r ->
      check Alcotest.string "every domain's table1 identical"
        (json (List.hd results)) (json r))
    results

let test_bench_parallel_determinism () =
  let serial = bench_json ~jobs:1 in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "bench snapshot byte-identical at jobs=%d" jobs)
        serial (bench_json ~jobs))
    [ 2; 4 ]

let () =
  Alcotest.run "parsweep"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "map runs every task once" `Quick
            test_map_side_effects_complete;
          Alcotest.test_case "map re-raises lowest-indexed failure" `Quick
            test_map_exception_lowest_index;
          Alcotest.test_case "chunks are contiguous and balanced" `Quick
            test_chunks;
        ] );
      ( "wall",
        [ Alcotest.test_case "monotonic, measures" `Quick test_wall_monotonic ]
      );
      ( "determinism",
        [
          Alcotest.test_case "faultsim sweep serial = parallel" `Slow
            test_faultsim_parallel_determinism;
          Alcotest.test_case "bench matrix first use in parallel" `Slow
            test_bench_parallel_first_use;
          Alcotest.test_case "bench matrix serial = parallel" `Slow
            test_bench_parallel_determinism;
        ] );
    ]
