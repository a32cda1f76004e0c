exception Fault of { addr : int; size : int; reason : string }

module Metrics = Nvmpi_obs.Metrics

type observer = write:bool -> addr:int -> size:int -> unit

let no_observer : observer = fun ~write:_ ~addr:_ ~size:_ -> ()
let no_page = Bytes.create 0

type t = {
  page_bits : int;
  page_mask : int; (* page_size - 1, precomputed for the access path *)
  pages : (int, Bytes.t) Hashtbl.t;
  mutable ranges : (int * int) array; (* (first_page, last_page) sorted *)
  (* Observers live in a growable array: O(1) amortized registration and
     index-loop dispatch with no list cells on the notify path. [obs0]
     mirrors slot 0 so the common single-observer machine pays one
     direct closure call per access. *)
  mutable obs : observer array;
  mutable n_obs : int;
  mutable obs0 : observer;
  mutable notify : bool;
  (* Single-entry TLB: the last page touched through the access path.
     Invalidated by unmap (the only operation that drops pages). *)
  mutable tlb_page : int; (* -1 = invalid *)
  mutable tlb_bytes : Bytes.t;
  (* Counter cells resolved once at creation: the access path runs on
     every simulated load/store, so it must not pay a registry lookup. *)
  c_loads : int ref;
  c_stores : int ref;
}

let create ?(page_bits = 12) ?metrics () =
  if page_bits < 4 || page_bits > 24 then invalid_arg "Memsim.create";
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    page_bits;
    page_mask = (1 lsl page_bits) - 1;
    pages = Hashtbl.create 1024;
    ranges = [||];
    obs = [||];
    n_obs = 0;
    obs0 = no_observer;
    notify = true;
    tlb_page = -1;
    tlb_bytes = no_page;
    c_loads = Metrics.counter metrics "mem.loads";
    c_stores = Metrics.counter metrics "mem.stores";
  }

let page_size t = 1 lsl t.page_bits

let fault addr size reason = raise (Fault { addr; size; reason })

(* Binary search: does page index [p] fall inside a mapped range? *)
let page_in_ranges t p =
  let ranges = t.ranges in
  let lo = ref 0 and hi = ref (Array.length ranges - 1) and found = ref false in
  while !lo <= !hi && not !found do
    let mid = (!lo + !hi) / 2 in
    let first, last = ranges.(mid) in
    if p < first then hi := mid - 1
    else if p > last then lo := mid + 1
    else found := true
  done;
  !found

let map t ~addr ~size =
  if addr < 0 || size <= 0 then invalid_arg "Memsim.map: bad range";
  let first = addr lsr t.page_bits in
  let last = (addr + size - 1) lsr t.page_bits in
  Array.iter
    (fun (f, l) ->
      if not (last < f || first > l) then
        invalid_arg
          (Printf.sprintf "Memsim.map: range at 0x%x overlaps existing mapping"
             addr))
    t.ranges;
  let ranges = Array.append t.ranges [| (first, last) |] in
  (* Ranges are disjoint, so ordering by first page is a total order;
     the monomorphic comparator avoids polymorphic compare. *)
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) ranges;
  t.ranges <- ranges

let unmap t ~addr =
  let first = addr lsr t.page_bits in
  let found = ref None in
  Array.iter
    (fun (f, l) -> if f = first then found := Some (f, l))
    t.ranges;
  match !found with
  | None ->
      invalid_arg (Printf.sprintf "Memsim.unmap: no mapping at 0x%x" addr)
  | Some (f, l) ->
      for p = f to l do
        Hashtbl.remove t.pages p
      done;
      (* Drop the range in place: [f] is unique among disjoint ranges. *)
      let n = Array.length t.ranges in
      let out = Array.make (n - 1) (0, 0) in
      let j = ref 0 in
      Array.iter
        (fun ((rf, _) as r) ->
          if rf <> f then begin
            out.(!j) <- r;
            incr j
          end)
        t.ranges;
      t.ranges <- out;
      t.tlb_page <- -1;
      t.tlb_bytes <- no_page

let is_mapped t a = a >= 0 && page_in_ranges t (a lsr t.page_bits)

let mappings t =
  Array.to_list t.ranges
  |> List.map (fun (f, l) ->
         (f lsl t.page_bits, (l - f + 1) lsl t.page_bits))

let add_observer t f =
  if t.n_obs = Array.length t.obs then begin
    let grown = Array.make (max 4 (2 * t.n_obs)) no_observer in
    Array.blit t.obs 0 grown 0 t.n_obs;
    t.obs <- grown
  end;
  t.obs.(t.n_obs) <- f;
  if t.n_obs = 0 then t.obs0 <- f;
  t.n_obs <- t.n_obs + 1

let observed t b = t.notify <- b

let notify t write addr size =
  if write then incr t.c_stores else incr t.c_loads;
  if t.notify then begin
    let n = t.n_obs in
    if n = 1 then t.obs0 ~write ~addr ~size
    else if n > 1 then
      let obs = t.obs in
      for i = 0 to n - 1 do
        (Array.unsafe_get obs i) ~write ~addr ~size
      done
  end

let materialize t p addr size =
  if not (page_in_ranges t p) then fault addr size "unmapped";
  let page = Bytes.make (t.page_mask + 1) '\000' in
  Hashtbl.add t.pages p page;
  page

let[@inline] get_page t addr size =
  let p = addr lsr t.page_bits in
  if p = t.tlb_page then t.tlb_bytes
  else begin
    let page =
      match Hashtbl.find t.pages p with
      | page -> page
      | exception Not_found -> materialize t p addr size
    in
    t.tlb_page <- p;
    t.tlb_bytes <- page;
    page
  end

let check_align addr size =
  if addr land (size - 1) <> 0 then fault addr size "misaligned"

let off t addr = addr land t.page_mask

let load8 t a =
  if a < 0 then fault a 1 "negative address";
  let page = get_page t a 1 in
  notify t false a 1;
  Char.code (Bytes.get page (a land t.page_mask))

let load16 t a =
  check_align a 2;
  let page = get_page t a 2 in
  notify t false a 2;
  Bytes.get_uint16_le page (a land t.page_mask)

let load32 t a =
  check_align a 4;
  let page = get_page t a 4 in
  notify t false a 4;
  Int32.to_int (Bytes.get_int32_le page (a land t.page_mask)) land 0xFFFFFFFF

let load64 t a =
  check_align a 8;
  let page = get_page t a 8 in
  notify t false a 8;
  Int64.to_int (Bytes.get_int64_le page (a land t.page_mask))

let store8 t a v =
  if a < 0 then fault a 1 "negative address";
  let page = get_page t a 1 in
  notify t true a 1;
  Bytes.set page (a land t.page_mask) (Char.chr (v land 0xFF))

let store16 t a v =
  check_align a 2;
  let page = get_page t a 2 in
  notify t true a 2;
  Bytes.set_uint16_le page (a land t.page_mask) (v land 0xFFFF)

let store32 t a v =
  check_align a 4;
  let page = get_page t a 4 in
  notify t true a 4;
  Bytes.set_int32_le page (a land t.page_mask) (Int32.of_int (v land 0xFFFFFFFF))

let store64 t a v =
  check_align a 8;
  let page = get_page t a 8 in
  notify t true a 8;
  Bytes.set_int64_le page (a land t.page_mask) (Int64.of_int v)

let load_sized t ~size a =
  match size with
  | 1 -> load8 t a
  | 2 -> load16 t a
  | 4 -> load32 t a
  | 8 -> load64 t a
  | _ -> invalid_arg "Memsim.load_sized"

let store_sized t ~size a v =
  match size with
  | 1 -> store8 t a v
  | 2 -> store16 t a v
  | 4 -> store32 t a v
  | 8 -> store64 t a v
  | _ -> invalid_arg "Memsim.store_sized"

(* Bulk transfers copy raw page chunks (so arbitrary byte patterns
   roundtrip exactly, including 64-bit words that would overflow a native
   int) and report one observer access per chunk; the timing model
   charges every cache line the chunk touches. *)

let blit_from_bytes t ~addr b =
  let len = Bytes.length b in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let page = get_page t a 1 in
    let poff = off t a in
    let chunk = min (len - !i) (page_size t - poff) in
    Bytes.blit b !i page poff chunk;
    notify t true a chunk;
    i := !i + chunk
  done

let blit_to_bytes t ~addr ~len =
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let page = get_page t a 1 in
    let poff = off t a in
    let chunk = min (len - !i) (page_size t - poff) in
    Bytes.blit page poff b !i chunk;
    notify t false a chunk;
    i := !i + chunk
  done;
  b

let fill t ~addr ~len c =
  for i = 0 to len - 1 do
    store8 t (addr + i) (Char.code c)
  done

(* Debug port: raw access that bypasses the access pipeline entirely —
   no observers, no load/store counters. Harness-only
   (the fault-injection subsystem's snapshot/restore machinery); never
   use it to model a program access. *)

let peek_bytes t ~addr ~len =
  if addr < 0 || len < 0 then invalid_arg "Memsim.peek_bytes";
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let p = a lsr t.page_bits in
    let poff = off t a in
    let chunk = min (len - !i) (page_size t - poff) in
    (match Hashtbl.find_opt t.pages p with
    | Some page -> Bytes.blit page poff b !i chunk
    | None ->
        if not (page_in_ranges t p) then fault a chunk "unmapped (peek)";
        Bytes.fill b !i chunk '\000');
    i := !i + chunk
  done;
  b

let poke_bytes t ~addr b =
  if addr < 0 then invalid_arg "Memsim.poke_bytes";
  let len = Bytes.length b in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let page = get_page t a 1 in
    let poff = off t a in
    let chunk = min (len - !i) (page_size t - poff) in
    Bytes.blit b !i page poff chunk;
    i := !i + chunk
  done

(* Typed facade (Kinds discipline, see Nvmpi_addr.Kinds): the public
   signature takes typed virtual addresses; the wrappers are zero-cost
   coercions over the int-based engine above. *)

module Vaddr = Nvmpi_addr.Kinds.Vaddr

let map t ~addr:(a : Vaddr.t) ~size = map t ~addr:(a :> int) ~size
let unmap t ~addr:(a : Vaddr.t) = unmap t ~addr:(a :> int)
let is_mapped t (a : Vaddr.t) = is_mapped t (a :> int)
let mappings t = List.map (fun (a, s) -> (Vaddr.v a, s)) (mappings t)
let load8 t (a : Vaddr.t) = load8 t (a :> int)
let load16 t (a : Vaddr.t) = load16 t (a :> int)
let load32 t (a : Vaddr.t) = load32 t (a :> int)
let load64 t (a : Vaddr.t) = load64 t (a :> int)
let store8 t (a : Vaddr.t) v = store8 t (a :> int) v
let store16 t (a : Vaddr.t) v = store16 t (a :> int) v
let store32 t (a : Vaddr.t) v = store32 t (a :> int) v
let store64 t (a : Vaddr.t) v = store64 t (a :> int) v
let load_sized t ~size (a : Vaddr.t) = load_sized t ~size (a :> int)
let store_sized t ~size (a : Vaddr.t) v = store_sized t ~size (a :> int) v
let blit_from_bytes t ~addr:(a : Vaddr.t) b = blit_from_bytes t ~addr:(a :> int) b
let blit_to_bytes t ~addr:(a : Vaddr.t) ~len = blit_to_bytes t ~addr:(a :> int) ~len
let fill t ~addr:(a : Vaddr.t) ~len c = fill t ~addr:(a :> int) ~len c
let peek_bytes t ~addr:(a : Vaddr.t) ~len = peek_bytes t ~addr:(a :> int) ~len
let poke_bytes t ~addr:(a : Vaddr.t) b = poke_bytes t ~addr:(a :> int) b
