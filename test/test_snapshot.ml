module Machine = Core.Machine
module Region = Core.Region
module Store = Core.Store
module Memsim = Core.Memsim
module Repr = Core.Repr
module Vaddr = Core.Kinds.Vaddr
module Snapshot = Nvmpi_snapshot.Snapshot
module Objstore = Nvmpi_tx.Objstore
module Kvstore = Nvmpi_apps.Kvstore

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Snapshot tests run on machines created with a snapshot discipline
   (line-granular unless asked otherwise): the machine picks the
   snapshot granularity, the kvstore write path and the heap. *)
let with_machine ?(size = 1 lsl 20) ?(seed = 1)
    ?(durability = Core.Durability.Snapshot_line) () =
  let store = Store.create () in
  let m = Machine.create ~seed ~durability ~store () in
  let rid = Machine.create_region m ~size in
  let r = Machine.open_region m rid in
  (store, m, rid, r)

(* Dirty tracking *)

let test_dirty_granularity () =
  let _, m, _, r = with_machine () in
  (* Allocate first: Region.alloc writes heap_top into the (tracked)
     region header, which would add a line of its own. *)
  let a = Region.alloc r 8192 in
  let snap = Snapshot.create m r () in
  (* Two words in one line: one dirty line. *)
  Memsim.store64 m.Machine.mem a 1;
  Memsim.store64 m.Machine.mem (Vaddr.add a 8) 2;
  check "one line" 1 (Snapshot.dirty_lines snap);
  (* A word one page later: a second page, a second line. *)
  Memsim.store64 m.Machine.mem (Vaddr.add a 4096) 3;
  check "two lines" 2 (Snapshot.dirty_lines snap);
  check "two pages" 2 (Snapshot.dirty_pages snap)

let test_protocol_pages_excluded () =
  let _, m, _, r = with_machine () in
  let snap = Snapshot.create m r () in
  (* The meta/log pages are written by sync itself; they must never
     enter the dirty set or sync would feed on its own traffic. *)
  Snapshot.sync snap;
  check "no dirty lines" 0 (Snapshot.dirty_lines snap);
  check "no pending bytes" 0 (Snapshot.pending_log_bytes snap);
  check "nothing committed" 0 (Snapshot.committed_bytes snap)

let test_line_vs_page_pending () =
  let _, m, _, r = with_machine () in
  let a = Region.alloc r (4 * 4096) in
  let line = Snapshot.create m r () in
  let _, m2, _, r2 =
    with_machine ~seed:2 ~durability:Core.Durability.Snapshot_page ()
  in
  let b = Region.alloc r2 (4 * 4096) in
  let page = Snapshot.create m2 r2 () in
  (* One word per page: four sparse small updates. *)
  for i = 0 to 3 do
    Memsim.store64 m.Machine.mem (Vaddr.add a (i * 4096)) i;
    Memsim.store64 m2.Machine.mem (Vaddr.add b (i * 4096)) i
  done;
  check "line logs 4 lines" (4 * (16 + 64)) (Snapshot.pending_log_bytes line);
  check "page logs 4 pages" (4 * (16 + 4096)) (Snapshot.pending_log_bytes page);
  check_bool "page amplifies sparse updates" true
    (Snapshot.pending_log_bytes page > Snapshot.pending_log_bytes line)

(* Sync protocol *)

let test_sync_clears_and_truncates () =
  let _, m, _, r = with_machine () in
  let snap = Snapshot.create m r () in
  let a = Region.alloc r 256 in
  Region.set_root r "a" a;
  Memsim.store64 m.Machine.mem a 41;
  Memsim.store64 m.Machine.mem (Vaddr.add a 128) 42;
  Snapshot.sync snap;
  check "value intact" 41 (Memsim.load64 m.Machine.mem a);
  check "dirty cleared" 0 (Snapshot.dirty_lines snap);
  check "log truncated" 0 (Snapshot.committed_bytes snap);
  check "pending cleared" 0 (Snapshot.pending_log_bytes snap)

let test_replay_restores_logged_image () =
  let _, m, _, r = with_machine () in
  let snap = Snapshot.create m r () in
  let a = Region.alloc r 64 in
  Memsim.store64 m.Machine.mem a 7;
  Snapshot.sync ~stop_after:`Commit snap;
  check_bool "log committed" true (Snapshot.committed_bytes snap > 0);
  (* Clobber the line after the commit point: replay must reinstall the
     logged image — this is the write-back recovery depends on. *)
  Memsim.store64 m.Machine.mem a 999;
  Snapshot.replay snap;
  check "logged image reinstalled" 7 (Memsim.load64 m.Machine.mem a);
  check "truncated after replay" 0 (Snapshot.committed_bytes snap);
  (* Idempotent: a second replay of the empty log changes nothing. *)
  Snapshot.replay snap;
  check "still installed" 7 (Memsim.load64 m.Machine.mem a)

let test_attach_replays_committed_log () =
  let store = Store.create () in
  let m1 =
    Machine.create ~seed:3 ~durability:Core.Durability.Snapshot_page ~store ()
  in
  let rid = Machine.create_region m1 ~size:(1 lsl 20) in
  let r1 = Machine.open_region m1 rid in
  let snap1 = Snapshot.create m1 r1 () in
  let a = Region.alloc r1 64 in
  Region.set_root r1 "a" a;
  Memsim.store64 m1.Machine.mem a 11;
  (* Crash between commit and write-back: the next attach owns replay.
     The granularity is read back from the image, whatever the
     recovering machine's discipline. *)
  Snapshot.sync ~stop_after:`Commit snap1;
  Snapshot.disable snap1;
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:4 ~store () in
  let r2 = Machine.open_region m2 rid in
  let snap2 = Snapshot.attach m2 r2 in
  check "granularity recovered" 0
    (match Snapshot.granularity snap2 with Page -> 0 | Line -> 1);
  check "log truncated by attach" 0 (Snapshot.committed_bytes snap2);
  let a' = Option.get (Region.root r2 "a") in
  check "epoch replayed" 11 (Memsim.load64 m2.Machine.mem a');
  (* A third open finds an empty log and the same state. *)
  Snapshot.disable snap2;
  Machine.close_region m2 rid;
  let m3 = Machine.create ~seed:5 ~store () in
  let r3 = Machine.open_region m3 rid in
  let snap3 = Snapshot.attach m3 r3 in
  check "idempotent reattach" 0 (Snapshot.committed_bytes snap3);
  check "state stable" 11
    (Memsim.load64 m3.Machine.mem (Option.get (Region.root r3 "a")))

let test_log_full_detected () =
  let _, m, _, r = with_machine () in
  (* One page of log fills after ~50 line records. *)
  let snap = Snapshot.create m r ~log_cap:4096 () in
  let a = Region.alloc r (80 * 64) in
  check_bool "overflow detected" true
    (try
       for i = 0 to 79 do
         Memsim.store64 m.Machine.mem (Vaddr.add a (i * 64)) i
       done;
       Snapshot.sync snap;
       false
     with Failure _ -> true)

(* Kvstore plain write path *)

let test_kvstore_plain_path () =
  let _, m, _, r = with_machine () in
  let snap = Snapshot.create m r () in
  let os = Objstore.create m r () in
  let kv = Kvstore.create os ~repr:Repr.Off_holder ~name:"kv" () in
  check_bool "plain path" true (Kvstore.write_path kv = `Plain);
  check_bool "freelist heap" true (Objstore.heap_kind os = `Freelist);
  Kvstore.put kv ~key:1 "one";
  Kvstore.put kv ~key:2 "two";
  Kvstore.put kv ~key:1 "uno";
  Snapshot.sync snap;
  Alcotest.(check (option string)) "overwrite" (Some "uno") (Kvstore.get kv ~key:1);
  Alcotest.(check (option string)) "second key" (Some "two") (Kvstore.get kv ~key:2);
  check_bool "delete" true (Kvstore.delete kv ~key:2);
  Snapshot.sync snap;
  Alcotest.(check (option string)) "deleted" None (Kvstore.get kv ~key:2);
  check_bool "tx crash hook rejected on plain path" true
    (try
       Kvstore.simulate_crash_during_put kv ~key:9 "x";
       false
     with Invalid_argument _ -> true)

(* Differential property: the same op sequence through the snapshot-mode
   kvstore (plain write path + sync epochs), the undo-log Tx kvstore and
   a pure assoc-list model must agree key-for-key — both live and after
   the snapshot side re-attaches (replaying any committed log). *)

type kv_op = Put of int * string | Del of int | SyncPoint

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 30)
      (int_range 0 9 >>= fun r ->
       int_range 1 8 >>= fun k ->
       int_range 0 999 >>= fun v ->
       return
         (if r < 6 then Put (k, Printf.sprintf "v%03d" v)
          else if r < 8 then Del k
          else SyncPoint)))

let prop_snapshot_tx_model_agree =
  QCheck2.Test.make ~name:"snapshot, undo-log tx and model agree" ~count:30
    gen_ops
    (fun ops ->
      (* Snapshot arm, on a store we can re-open for the recovery leg. *)
      let store = Store.create () in
      let snapshot_machine seed =
        Machine.create ~seed ~durability:Core.Durability.Snapshot_line ~store
          ()
      in
      let m1 = snapshot_machine 7 in
      let rid = Machine.create_region m1 ~size:(1 lsl 20) in
      let r1 = Machine.open_region m1 rid in
      let snap = Snapshot.create m1 r1 () in
      let os1 = Objstore.create m1 r1 () in
      let kv_snap = Kvstore.create os1 ~repr:Repr.Off_holder ~name:"kv" () in
      (* Undo-log arm. *)
      let _, m2, _, r2 =
        with_machine ~seed:8 ~durability:Core.Durability.Eager ()
      in
      let os2 = Objstore.create m2 r2 () in
      let kv_tx = Kvstore.create os2 ~repr:Repr.Off_holder ~name:"kv" () in
      let model = ref [] in
      List.iter
        (function
          | Put (k, v) ->
              Kvstore.put kv_snap ~key:k v;
              Kvstore.put kv_tx ~key:k v;
              model := (k, v) :: List.remove_assoc k !model
          | Del k ->
              ignore (Kvstore.delete kv_snap ~key:k);
              ignore (Kvstore.delete kv_tx ~key:k);
              model := List.remove_assoc k !model
          | SyncPoint -> Snapshot.sync snap)
        ops;
      let agree kv =
        List.for_all
          (fun k -> Kvstore.get kv ~key:k = List.assoc_opt k !model)
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      let live = agree kv_snap && agree kv_tx in
      (* Recovery leg: close the epoch at its commit point and re-attach,
         so the final state is reconstructed through log replay. *)
      Snapshot.sync ~stop_after:`Commit snap;
      Snapshot.disable snap;
      Machine.close_region m1 rid;
      let m1' = snapshot_machine 9 in
      let r1' = Machine.open_region m1' rid in
      ignore (Snapshot.attach m1' r1');
      let os1' = Objstore.attach m1' r1' in
      let kv' = Kvstore.attach os1' ~repr:Repr.Off_holder ~name:"kv" in
      live && agree kv')

let () =
  Alcotest.run "snapshot"
    [
      ( "tracking",
        [
          Alcotest.test_case "dirty granularity" `Quick test_dirty_granularity;
          Alcotest.test_case "protocol pages excluded" `Quick
            test_protocol_pages_excluded;
          Alcotest.test_case "line vs page pending" `Quick
            test_line_vs_page_pending;
        ] );
      ( "sync",
        [
          Alcotest.test_case "sync clears and truncates" `Quick
            test_sync_clears_and_truncates;
          Alcotest.test_case "replay restores logged image" `Quick
            test_replay_restores_logged_image;
          Alcotest.test_case "attach replays committed log" `Quick
            test_attach_replays_committed_log;
          Alcotest.test_case "log overflow detected" `Quick
            test_log_full_detected;
        ] );
      ( "kvstore",
        [ Alcotest.test_case "plain write path" `Quick test_kvstore_plain_path ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_snapshot_tx_model_agree ] );
    ]
