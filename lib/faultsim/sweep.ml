module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json

type mode = After_fences | Exhaustive | Sampled of int

let mode_to_string = function
  | After_fences -> "after-fences"
  | Exhaustive -> "exhaustive"
  | Sampled k -> Printf.sprintf "sampled-%d" k

type failure = {
  seq : int;
  detail : string;
  window : (int * Events.t) list;
}

type scenario_result = {
  name : string;
  expect_fail : bool;
  points : int;
  failures : failure list;
  durable_bytes : int;
  volatile_bytes : int;
  wall_ns : int;
}

type report = { seed : int; mode : mode; scenarios : scenario_result list }

let scenario_ok r =
  if r.expect_fail then r.failures <> [] else r.failures = []

let ok report = List.for_all scenario_ok report.scenarios

let crash_points tracker mode ~seed =
  let n = Tracker.seq tracker in
  let pts =
    match mode with
    | Exhaustive -> List.init (n + 1) Fun.id
    | After_fences ->
        let after_fences = ref [ 0; n ] in
        for i = 0 to n - 1 do
          match Tracker.event tracker i with
          | Events.Fence -> after_fences := (i + 1) :: !after_fences
          | _ -> ()
        done;
        !after_fences
    | Sampled k ->
        let st = Random.State.make [| seed; n; 0x5EED |] in
        let draws = List.init k (fun _ -> Random.State.int st (n + 1)) in
        0 :: n :: draws
  in
  List.sort_uniq compare pts

(* Evaluate an ascending run of crash points with a private cursor. Pure
   with respect to shared state: the tracker is disarmed (read-only), the
   cursor replays into images it owns, and every recovery machine gets a
   private metrics registry — which is what lets chunks of points run on
   separate domains and still merge byte-identically. *)
let eval_points ~tracker ~verify ~seed points =
  let cursor = Replay.create tracker in
  List.map
    (fun p ->
      Replay.advance cursor ~upto:p;
      let recovery_seed = (seed * 1_000_003) + p in
      let outcome =
        try
          let machine', regions' =
            Recovery.boot ~seed:recovery_seed (Replay.images cursor)
          in
          verify ~seq:p machine' regions'
        with e -> Error ("recovery raised " ^ Printexc.to_string e)
      in
      (p, outcome))
    points

(* Fold a scenario's evaluated outcomes (in ascending point order) into
   the shared registry and a result record. Shared-registry counters
   move only here, on the calling domain — identical totals for any
   [jobs]. *)
let merge_scenario ~metrics ~tracker (sc : Scenario.t) ~points ~outcomes
    ~wall_ns =
  let c_points = Metrics.counter metrics "faultsim.crash_points" in
  let c_pass = Metrics.counter metrics "faultsim.schedules.passed" in
  let c_fail = Metrics.counter metrics "faultsim.schedules.failed" in
  let failures =
    List.filter_map
      (fun (p, outcome) ->
        incr c_points;
        match outcome with
        | Ok () ->
            incr c_pass;
            None
        | Error detail ->
            incr c_fail;
            Some
              {
                seq = p;
                detail;
                window = Tracker.event_window tracker ~upto:p ~width:6;
              })
      outcomes
  in
  {
    name = sc.Scenario.name;
    expect_fail = sc.Scenario.expect_fail;
    points = List.length points;
    failures;
    durable_bytes = Tracker.durable_bytes tracker;
    volatile_bytes = Tracker.volatile_bytes tracker;
    wall_ns;
  }

let rec take_drop n lst =
  if n = 0 then ([], lst)
  else
    match lst with
    | [] -> ([], [])
    | x :: rest ->
        let taken, rest = take_drop (n - 1) rest in
        (x :: taken, rest)

let run ?(jobs = 1) ?(mode = After_fences) ~metrics ~seed scenarios =
  (* Workloads feed the shared registry: run them serially, in order.
     Chunk evaluation is where the time goes, so every chunk of every
     scenario is submitted to ONE pool — domains are spawned once per
     sweep, not once per scenario. At [jobs = 1] the pool runs the
     single chunk per scenario inline, so every [jobs] value runs this
     same code. *)
  let prepared =
    List.map
      (fun sc ->
        let (tracker, verify, points), workload_ns =
          Nvmpi_parsweep.Wall.time (fun () ->
              let { Scenario.tracker; verify } =
                sc.Scenario.run ~metrics ~seed
              in
              (* The workload is over; stop recording so recovery
                 machines and the verification itself cannot grow the
                 log under the cursor. *)
              Tracker.disarm tracker;
              (tracker, verify, crash_points tracker mode ~seed))
        in
        (sc, tracker, verify, points, Nvmpi_parsweep.Pool.chunks ~jobs points,
         workload_ns))
      scenarios
  in
  let tasks =
    List.concat_map
      (fun (_, tracker, verify, _, chunks, _) ->
        List.map
          (fun chunk () ->
            Nvmpi_parsweep.Wall.time (fun () ->
                eval_points ~tracker ~verify ~seed chunk))
          chunks)
      prepared
  in
  let evaluated = ref (Nvmpi_parsweep.Pool.map ~jobs tasks) in
  let scenarios =
    List.map
      (fun (sc, tracker, _, points, chunks, workload_ns) ->
        let mine, rest = take_drop (List.length chunks) !evaluated in
        evaluated := rest;
        (* A scenario's wall_ns is its serial workload time plus the
           summed (CPU-like) time of its chunks, which under [jobs > 1]
           overlap other scenarios' chunks on the pool. *)
        let eval_ns = List.fold_left (fun a (_, ns) -> a + ns) 0 mine in
        merge_scenario ~metrics ~tracker sc ~points
          ~outcomes:(List.concat_map fst mine)
          ~wall_ns:(workload_ns + eval_ns))
      prepared
  in
  let durable =
    List.fold_left (fun a r -> a + r.durable_bytes) 0 scenarios
  in
  let volatile =
    List.fold_left (fun a r -> a + r.volatile_bytes) 0 scenarios
  in
  Metrics.incr ~by:durable metrics "faultsim.bytes.durable";
  Metrics.incr ~by:volatile metrics "faultsim.bytes.volatile";
  { seed; mode; scenarios }

(* {1 Reporting} *)

let json_of_failure f =
  Json.Obj
    [
      ("seq", Json.Int f.seq);
      ("detail", Json.String f.detail);
      ( "window",
        Json.List
          (List.map
             (fun (i, e) ->
               Json.Obj
                 [
                   ("seq", Json.Int i);
                   ("event", Json.String (Events.to_string e));
                 ])
             f.window) );
    ]

let json_of_scenario r =
  Json.Obj
    [
      ("name", Json.String r.name);
      ("expect_fail", Json.Bool r.expect_fail);
      ("ok", Json.Bool (scenario_ok r));
      ("crash_points", Json.Int r.points);
      ("violations", Json.Int (List.length r.failures));
      ("durable_bytes", Json.Int r.durable_bytes);
      ("volatile_bytes", Json.Int r.volatile_bytes);
      ("failures", Json.List (List.map json_of_failure r.failures));
    ]

let json_of_report report =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("kind", Json.String "faultsim");
      ("seed", Json.Int report.seed);
      ("mode", Json.String (mode_to_string report.mode));
      ("ok", Json.Bool (ok report));
      ( "total_crash_points",
        Json.Int
          (List.fold_left (fun a r -> a + r.points) 0 report.scenarios) );
      ("scenarios", Json.List (List.map json_of_scenario report.scenarios));
    ]

(* Host wall-clock lives in its own document: the sweep report above is
   byte-identical across hosts and jobs values, this one never is. *)
let wall_json_of_report ~jobs report =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("kind", Json.String "faultsim-wall");
      ("seed", Json.Int report.seed);
      ("mode", Json.String (mode_to_string report.mode));
      ("jobs", Json.Int jobs);
      ( "total_ns",
        Json.Int
          (List.fold_left (fun a r -> a + r.wall_ns) 0 report.scenarios) );
      ( "scenarios",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.name);
                   ("wall_ns", Json.Int r.wall_ns);
                 ])
             report.scenarios) );
    ]

let pp_failure ppf f =
  Format.fprintf ppf "@[<v 2>at crash point %d: %s" f.seq f.detail;
  List.iter
    (fun (i, e) -> Format.fprintf ppf "@,  [%d] %s" i (Events.to_string e))
    f.window;
  Format.fprintf ppf "@]"

let pp_report ppf report =
  Format.fprintf ppf "faultsim sweep: seed=%d mode=%s@." report.seed
    (mode_to_string report.mode);
  List.iter
    (fun r ->
      let verdict =
        if scenario_ok r then "ok"
        else if r.expect_fail then "FAIL (expected violations, saw none)"
        else "FAIL"
      in
      Format.fprintf ppf "  %-42s %4d points  %3d violations  %s%s@." r.name
        r.points
        (List.length r.failures)
        verdict
        (if r.expect_fail && r.failures <> [] then " (expected)" else "");
      if not (scenario_ok r) then
        List.iter (fun f -> Format.fprintf ppf "    %a@." pp_failure f)
          r.failures)
    report.scenarios;
  let total = List.fold_left (fun a r -> a + r.points) 0 report.scenarios in
  Format.fprintf ppf "  total: %d scenarios, %d crash points — %s@."
    (List.length report.scenarios)
    total
    (if ok report then "all invariants hold" else "INVARIANT VIOLATIONS")
