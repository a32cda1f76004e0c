(* A persistent key-value store session: put/get/delete with
   crash-consistent updates, surviving a crash, a remap and a file
   round-trip — the "key-value stores on NVM" use case the paper's
   introduction cites.

   Run with:  dune exec examples/kv_demo.exe *)

module Machine = Core.Machine
module Store = Core.Store
module Objstore = Nvmpi_tx.Objstore
module Kvstore = Nvmpi_apps.Kvstore

let repr = Core.Repr.Riv

let () =
  let store = Store.create () in
  (* Session 1: create and populate. *)
  let rid =
    let m = Machine.create ~seed:1 ~store () in
    let rid = Machine.create_region m ~size:(1 lsl 22) in
    let r = Machine.open_region m rid in
    let os = Objstore.create m r () in
    let kv = Kvstore.create os ~repr ~name:"config" () in
    Kvstore.put kv ~key:1 "alpha";
    Kvstore.put kv ~key:2 "beta";
    Kvstore.put kv ~key:3 "gamma";
    Printf.printf "session 1: stored %d entries in region %d at 0x%x\n"
      (Kvstore.size kv)
      (rid :> int)
      (Core.Region.base r :> int);
    (* Power fails in the middle of overwriting key 2... *)
    Kvstore.simulate_crash_during_put kv ~key:2 "CORRUPTED";
    print_endline "session 1: power failed mid-update of key 2";
    Machine.close_region m rid;
    rid
  in
  (* The device image travels through a file, like a real NVDIMM dump. *)
  let path = Filename.temp_file "kv" ".nvm" in
  Store.save_file store path;
  let store = Result.get_ok (Store.load_file path) in
  Sys.remove path;
  (* Session 2: recovery + reads at a different mapping. *)
  let m = Machine.create ~seed:99 ~store () in
  let r = Machine.open_region m rid in
  Printf.printf "session 2: region %d now at 0x%x\n"
    (rid :> int)
    (Core.Region.base r :> int);
  let os = Objstore.attach m r in
  let kv = Kvstore.attach os ~repr ~name:"config" in
  List.iter
    (fun k ->
      Printf.printf "  key %d -> %s\n" k
        (Option.value ~default:"(absent)" (Kvstore.get kv ~key:k)))
    [ 1; 2; 3 ];
  assert (Kvstore.get kv ~key:2 = Some "beta");
  print_endline "session 2: interrupted update rolled back, store intact";
  Kvstore.put kv ~key:4 "delta";
  assert (Kvstore.delete kv ~key:1);
  Printf.printf "session 2: after edits, keys = [%s]\n"
    (String.concat "; " (List.map string_of_int (Kvstore.keys kv)))
