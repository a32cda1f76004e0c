(* The paper's Figure 9 scenario, as a library user would write it: a
   linked list of order records in one NVRegion whose nodes also point
   into a second NVRegion holding a shared product catalog.

   - intra-region "next" links are persistentI (off-holder);
   - cross-region "product" links are persistentX (RIV);

   and the whole thing survives both regions being remapped, including
   persistence of the store to a file between "processes".

   Run with:  dune exec examples/product_catalog.exe *)

module Machine = Core.Machine
module Region = Core.Region
module Store = Core.Store
module Memsim = Core.Memsim
module OffH = Core.Off_holder
module Riv = Core.Riv
module Vaddr = Core.Kinds.Vaddr

(* Node layout: [next (off-holder, 8)] [product (RIV, 8)] [qty (8)].
   Product layout: [price (8)]. *)
let next_off = 0
let prod_off = 8
let qty_off = 16
let node_size = 24

let build store =
  let m = Machine.create ~seed:2026 ~store () in
  let orders_rid = Machine.create_region m ~size:65536 in
  let catalog_rid = Machine.create_region m ~size:65536 in
  let orders = Machine.open_region m orders_rid in
  let catalog = Machine.open_region m catalog_rid in
  (* Three catalog products. *)
  let products =
    Array.init 3 (fun i ->
        let p = Region.alloc catalog 8 in
        Memsim.store64 m.Machine.mem p ((i + 1) * 100);
        p)
  in
  (* Orders: each points to its product across regions. *)
  let head = ref Vaddr.null in
  for i = 2 downto 0 do
    let n = Region.alloc orders node_size in
    OffH.store m ~holder:(Vaddr.add n next_off) !head;
    Riv.store m ~holder:(Vaddr.add n prod_off) products.(i);
    Memsim.store64 m.Machine.mem (Vaddr.add n qty_off) (i + 1);
    head := n
  done;
  Region.set_root orders "orders" !head;
  Printf.printf "writer: orders at 0x%x, catalog at 0x%x\n"
    (Region.base orders :> int)
    (Region.base catalog :> int);
  Machine.close_region m orders_rid;
  Machine.close_region m catalog_rid;
  (orders_rid, catalog_rid)

let walk m orders =
  let cur = ref (Option.get (Region.root orders "orders")) in
  let total = ref 0 in
  while not (Vaddr.is_null !cur) do
    let qty = Memsim.load64 m.Machine.mem (Vaddr.add !cur qty_off) in
    let product = Riv.load m ~holder:(Vaddr.add !cur prod_off) in
    let price = Memsim.load64 m.Machine.mem product in
    Printf.printf "  order: qty=%d price=%d (product in region %d)\n" qty price
      (Machine.rid_of_addr_exn m product :> int);
    total := !total + (qty * price);
    cur := OffH.load m ~holder:(Vaddr.add !cur next_off)
  done;
  !total

let read store (orders_rid, catalog_rid) =
  let m = Machine.create ~seed:777 ~store () in
  let orders = Machine.open_region m orders_rid in
  let catalog = Machine.open_region m catalog_rid in
  Printf.printf "reader: orders at 0x%x, catalog at 0x%x (both moved)\n"
    (Region.base orders :> int)
    (Region.base catalog :> int);
  let total = walk m orders in
  Printf.printf "reader: order total = %d\n" total;
  assert (total = (1 * 100) + (2 * 200) + (3 * 300));
  (* Same process, regions moved again under our feet: remap_region
     closes and reopens each region at a fresh base in one call. The
     off-holder/RIV links don't care. *)
  let orders = Machine.remap_region m orders_rid in
  let catalog = Machine.remap_region m catalog_rid in
  Printf.printf "reader: remapped in-run to 0x%x and 0x%x\n"
    (Region.base orders :> int)
    (Region.base catalog :> int);
  let total' = walk m orders in
  Printf.printf "reader: order total after remap = %d\n" total';
  assert (total' = total)

let () =
  let store = Store.create () in
  let rids = build store in
  (* Persist the device image to a file and load it back, as if a second
     process picked it up later. *)
  let path = Filename.temp_file "catalog" ".nvm" in
  Store.save_file store path;
  let store2 = Result.get_ok (Store.load_file path) in
  Sys.remove path;
  read store2 rids;
  print_endline "cross-region references held across remap + file roundtrip."
