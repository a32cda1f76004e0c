(* Spans recorded by the benchmark around its own calls into each
   layer, with the simulated-cycle and flush/fence deltas taken at the
   same boundaries. Spans stay in memory and are written out once, at
   the end of the run. There is one client on one domain, so a span's
   wait time is zero by construction and is not recorded. *)

module Machine = Core.Machine
module Metrics = Core.Metrics
module Wall = Nvmpi_parsweep.Wall

type agg = {
  mutable n : int;
  mutable ns : int;
  mutable cycles : int;
  mutable flushes : int;
  mutable fences : int;
  mutable work : int;  (* units of work the spans covered, e.g. nodes *)
}

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  name : string;
  t0 : int;
  c0 : int;
  f0 : int;
  fe0 : int;
}

type t = {
  aggs : (string, agg) Hashtbl.t;
  out : Buffer.t;  (* one TSV line per finished span *)
  mutable written : int;
  mutable next_id : int;
}

(* Bounds the in-memory span log; aggregates keep counting past it. *)
let max_logged = 200_000

let create () =
  {
    aggs = Hashtbl.create 16;
    out = Buffer.create (1 lsl 16);
    written = 0;
    next_id = 1;
  }

let counter m name = Metrics.get (Machine.metrics m) name

let start t m ?(parent = 0) name =
  let id = t.next_id in
  t.next_id <- id + 1;
  {
    id;
    parent;
    name;
    c0 = Machine.cycles m;
    f0 = counter m "timing.flushes";
    fe0 = counter m "timing.fences";
    t0 = Wall.now_ns ();
  }

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a =
        { n = 0; ns = 0; cycles = 0; flushes = 0; fences = 0; work = 0 }
      in
      Hashtbl.add t.aggs name a;
      a

let finish t m ?(work = 1) s =
  let t1 = Wall.now_ns () in
  let a = agg t s.name in
  let dc = Machine.cycles m - s.c0 in
  a.n <- a.n + 1;
  a.work <- a.work + work;
  a.ns <- a.ns + (t1 - s.t0);
  a.cycles <- a.cycles + dc;
  a.flushes <- a.flushes + (counter m "timing.flushes" - s.f0);
  a.fences <- a.fences + (counter m "timing.fences" - s.fe0);
  if t.written < max_logged then begin
    t.written <- t.written + 1;
    Printf.bprintf t.out "%d\t%d\t%s\t%d\t%d\t%d\n" s.id s.parent s.name
      s.t0 t1 dc
  end

let find t name = Hashtbl.find_opt t.aggs name

(* Mean host microseconds / simulated cycles per span; 0 when the span
   never ran on this workload. *)
let mean_us t name =
  match find t name with
  | Some a when a.n > 0 -> float_of_int a.ns /. 1000.0 /. float_of_int a.n
  | _ -> 0.0

let mean_cycles t name =
  match find t name with
  | Some a when a.n > 0 -> float_of_int a.cycles /. float_of_int a.n
  | _ -> 0.0

let ns_per_work t name =
  match find t name with
  | Some a when a.work > 0 -> float_of_int a.ns /. float_of_int a.work
  | _ -> 0.0

let write t path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_ns\tend_ns\tsim_cycles\n";
  Buffer.output_buffer oc t.out;
  close_out oc
