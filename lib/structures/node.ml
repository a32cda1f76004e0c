module Machine = Core.Machine
module Region = Nvmpi_nvregion.Region
module Memsim = Nvmpi_memsim.Memsim
module Objstore = Nvmpi_tx.Objstore
module Vaddr = Nvmpi_addr.Kinds.Vaddr

type alloc_mode = Plain of Region.t array | Wrapped of Objstore.t array

type t = {
  machine : Machine.t;
  mode : alloc_mode;
  payload : int;
  traverse : bool;
  mutable next_region : int;
}

let make machine ~mode ~payload =
  (match mode with
  | Plain [||] | Wrapped [||] -> invalid_arg "Node.make: no regions"
  | _ -> ());
  if payload < 0 then invalid_arg "Node.make: negative payload";
  let traverse = machine.Machine.durability = Core.Durability.Traverse in
  { machine; mode; payload; traverse; next_region = 0 }

let regions t =
  match t.mode with
  | Plain rs -> rs
  | Wrapped oss -> Array.map Objstore.region oss

let home_region t = (regions t).(0)

let alloc_node t size =
  let i = t.next_region in
  let n =
    match t.mode with Plain rs -> Array.length rs | Wrapped os -> Array.length os
  in
  t.next_region <- (i + 1) mod n;
  match t.mode with
  | Plain rs -> Region.alloc rs.(i) size
  | Wrapped oss -> Objstore.alloc oss.(i) ~size ()

let alloc_in_home t size =
  match t.mode with
  | Plain rs -> Region.alloc rs.(0) size
  | Wrapped oss -> Objstore.alloc oss.(0) ~size ()

let touch t =
  match t.mode with
  | Plain _ -> ()
  | Wrapped oss -> Objstore.touch_read oss.(0)

let mem t = t.machine.Machine.mem

(* Payload contents are a simple word sequence derived from the seed, so
   a checksum mismatch reveals any corruption (e.g. via a dangling
   pointer that happens to land in mapped memory). *)

let payload_word ~seed i =
  ((seed * 0x9E3779B1) lxor (i * 0x85EBCA77)) land 0x3FFF_FFFF_FFFF

let write_payload t ~addr ~seed =
  let words = t.payload / 8 in
  for i = 0 to words - 1 do
    Machine.store64 t.machine (Vaddr.add addr (i * 8)) (payload_word ~seed i)
  done;
  for j = words * 8 to t.payload - 1 do
    Memsim.store8 (mem t) (Vaddr.add addr j) ((seed + j) land 0xFF)
  done

let read_payload t ~addr =
  let words = t.payload / 8 in
  let sum = ref 0 in
  for i = 0 to words - 1 do
    sum := !sum + Machine.load64 t.machine (Vaddr.add addr (i * 8))
  done;
  for j = words * 8 to t.payload - 1 do
    sum := !sum + Memsim.load8 (mem t) (Vaddr.add addr j)
  done;
  !sum

(* Byte-for-byte payload copy, for node-replacing operations (bstree's
   two-child remove builds replacement nodes): payloads may have been
   mutated since [write_payload] (e.g. [insert_count]'s word 0), so the
   copy preserves bytes rather than regenerating from a seed. *)
let copy_payload t ~src ~dst =
  let words = t.payload / 8 in
  for i = 0 to words - 1 do
    Machine.store64 t.machine
      (Vaddr.add dst (i * 8))
      (Machine.load64 t.machine (Vaddr.add src (i * 8)))
  done;
  for j = words * 8 to t.payload - 1 do
    Memsim.store8 (mem t) (Vaddr.add dst j) (Memsim.load8 (mem t) (Vaddr.add src j))
  done

let payload_checksum ~payload ~seed =
  let words = payload / 8 in
  let sum = ref 0 in
  for i = 0 to words - 1 do
    sum := !sum + payload_word ~seed i
  done;
  for j = words * 8 to payload - 1 do
    sum := !sum + ((seed + j) land 0xFF)
  done;
  !sum

(* Metadata blocks: [kind | payload | aux | reserved | head slot]. *)

let meta_bytes = 48
let head_slot_off = 32

let write_meta t ~name ~kind ~aux =
  let addr = alloc_in_home t meta_bytes in
  Memsim.store64 (mem t) addr kind;
  Memsim.store64 (mem t) (Vaddr.add addr 8) t.payload;
  Memsim.store64 (mem t) (Vaddr.add addr 16) aux;
  Memsim.store64 (mem t) (Vaddr.add addr 24) 0;
  Memsim.store64 (mem t) (Vaddr.add addr head_slot_off) 0;
  Memsim.store64 (mem t) (Vaddr.add addr (head_slot_off + 8)) 0;
  Region.set_root (home_region t) ~tag:kind name addr;
  addr

let find_meta machine region ~name ~kind =
  match Region.root region name with
  | None -> failwith (Printf.sprintf "Node.find_meta: no root %S" name)
  | Some addr ->
      let mem = machine.Machine.mem in
      let k = Memsim.load64 mem addr in
      if k <> kind then
        failwith
          (Printf.sprintf "Node.find_meta: root %S has kind %d, expected %d"
             name k kind);
      ( addr,
        Memsim.load64 mem (Vaddr.add addr 8),
        Memsim.load64 mem (Vaddr.add addr 16) )
