module Machine = Core.Machine
module Region = Core.Region
module Store = Core.Store
module Repr = Core.Repr
module Node = Nvmpi_structures.Node
module Objstore = Nvmpi_tx.Objstore
module Durability = Core.Durability
module Metrics = Nvmpi_obs.Metrics

module L_norm = Nvmpi_structures.Linked_list.Make (Core.Normal_ptr)
module L_offh = Nvmpi_structures.Linked_list.Make (Core.Off_holder)
module L_swiz = Nvmpi_structures.Linked_list.Make (Core.Swizzle)
module B_riv = Nvmpi_structures.Bstree.Make (Core.Riv)
module B_offh = Nvmpi_structures.Bstree.Make (Core.Off_holder)
module H_riv = Nvmpi_structures.Hashset.Make (Core.Riv)
module T_offh = Nvmpi_structures.Trie.Make (Core.Off_holder)
module T_swiz = Nvmpi_structures.Trie.Make (Core.Swizzle)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let node ?(seed = 1) ?(payload = 32) ?(regions = 1) ?(size = 1 lsl 22)
    ?(tx = false) ?durability () =
  let store = Store.create () in
  let m = Machine.create ~seed ?durability ~store () in
  let rs =
    Array.init regions (fun _ ->
        Machine.open_region m (Machine.create_region m ~size))
  in
  let mode =
    if tx then Node.Wrapped (Array.map (fun r -> Objstore.create m r ()) rs)
    else Node.Plain rs
  in
  (store, m, Node.make m ~mode ~payload)

(* Linked list *)

let test_list_append_traverse () =
  let _, _, nd = node () in
  let l = L_norm.create nd ~name:"l" in
  check "empty length" 0 (L_norm.length l);
  check "empty traverse" 0 (fst (L_norm.traverse l));
  List.iter (fun k -> L_norm.append l ~key:k) [ 1; 2; 3; 4; 5 ];
  check "length" 5 (L_norm.length l);
  let keys = ref [] in
  L_norm.iter l (fun ~addr:_ ~key -> keys := key :: !keys);
  Alcotest.(check (list int)) "append order" [ 1; 2; 3; 4; 5 ] (List.rev !keys)

let test_list_push_front () =
  let _, _, nd = node () in
  let l = L_norm.create nd ~name:"l" in
  List.iter (fun k -> L_norm.push_front l ~key:k) [ 1; 2; 3 ];
  let keys = ref [] in
  L_norm.iter l (fun ~addr:_ ~key -> keys := key :: !keys);
  Alcotest.(check (list int)) "lifo order" [ 3; 2; 1 ] (List.rev !keys);
  (* Mixing push_front and append keeps the tail correct. *)
  L_norm.append l ~key:99;
  check "length" 4 (L_norm.length l);
  check_bool "find tail key" true (L_norm.find l ~key:99)

let test_list_find () =
  let _, _, nd = node () in
  let l = L_norm.create nd ~name:"l" in
  List.iter (fun k -> L_norm.append l ~key:k) [ 10; 20; 30 ];
  check_bool "present" true (L_norm.find l ~key:20);
  check_bool "absent" false (L_norm.find l ~key:25)

let test_list_attach_same_run () =
  let _, _, nd = node () in
  let l = L_offh.create nd ~name:"mylist" in
  List.iter (fun k -> L_offh.append l ~key:k) [ 7; 8; 9 ];
  let l2 = L_offh.attach nd ~name:"mylist" in
  check "attached length" 3 (L_offh.length l2);
  (* Appending through the re-attached handle works (tail recomputed). *)
  L_offh.append l2 ~key:10;
  check "after append" 4 (L_offh.length l2)

let test_list_attach_wrong_kind () =
  let _, _, nd = node () in
  let _ = L_norm.create nd ~name:"l" in
  check_bool "kind mismatch detected" true
    (try
       ignore (B_riv.attach nd ~name:"l");
       false
     with Failure _ -> true)

let test_list_payload_checksum () =
  let _, _, nd = node ~payload:64 () in
  let l = L_norm.create nd ~name:"l" in
  List.iter (fun k -> L_norm.append l ~key:k) [ 3; 14; 15 ];
  let _, sum = L_norm.traverse l in
  let expect =
    List.fold_left
      (fun acc k -> acc + k + Node.payload_checksum ~payload:64 ~seed:k)
      0 [ 3; 14; 15 ]
  in
  check "checksum matches host computation" expect sum

(* BST *)

let test_bst_insert_search () =
  let _, _, nd = node () in
  let t = B_riv.create nd ~name:"t" in
  let keys = [ 50; 30; 70; 20; 40; 60; 80 ] in
  List.iter (fun k -> check_bool "fresh" true (B_riv.insert t ~key:k)) keys;
  check_bool "duplicate" false (B_riv.insert t ~key:30);
  check "size" 7 (B_riv.size t);
  check "depth" 3 (B_riv.depth t);
  List.iter (fun k -> check_bool "found" true (B_riv.search t ~key:k)) keys;
  check_bool "absent" false (B_riv.search t ~key:55)

let test_bst_traverse_counts () =
  let _, _, nd = node () in
  let t = B_riv.create nd ~name:"t" in
  for k = 1 to 100 do
    ignore (B_riv.insert t ~key:(k * 37 mod 101))
  done;
  let n, _ = B_riv.traverse t in
  check "traverse count = size" (B_riv.size t) n

let test_bst_insert_count () =
  let _, _, nd = node () in
  let t = B_offh.create nd ~name:"t" in
  B_offh.insert_count t ~key:5;
  B_offh.insert_count t ~key:5;
  B_offh.insert_count t ~key:9;
  check "count 5" 2 (B_offh.count t ~key:5);
  check "count 9" 1 (B_offh.count t ~key:9);
  check "count absent" 0 (B_offh.count t ~key:11)

(* Hash set *)

let test_hashset_basics () =
  let _, _, nd = node () in
  let h = H_riv.create nd ~name:"h" ~buckets:16 in
  check "buckets" 16 (H_riv.buckets h);
  check_bool "fresh" true (H_riv.add h ~key:1);
  check_bool "dup" false (H_riv.add h ~key:1);
  for k = 2 to 200 do
    ignore (H_riv.add h ~key:k)
  done;
  check "size" 200 (H_riv.size h);
  check_bool "contains" true (H_riv.contains h ~key:137);
  check_bool "not contains" false (H_riv.contains h ~key:999);
  let n, _ = H_riv.traverse h in
  check "traverse count" 200 n

let test_hashset_chain_order () =
  (* Keys in one bucket chain in insertion order (appended at end). *)
  let _, _, nd = node () in
  let h = H_riv.create nd ~name:"h" ~buckets:1 in
  List.iter (fun k -> ignore (H_riv.add h ~key:k)) [ 5; 3; 8 ];
  let keys = ref [] in
  H_riv.iter h (fun ~addr:_ ~key -> keys := key :: !keys);
  Alcotest.(check (list int)) "chain order" [ 5; 3; 8 ] (List.rev !keys)

(* Trie *)

let test_trie_insert_contains () =
  let _, _, nd = node () in
  let t = T_offh.create nd ~name:"t" in
  check_bool "fresh" true (T_offh.insert t "hello");
  check_bool "dup" false (T_offh.insert t "hello");
  check_bool "prefix-sharing word" true (T_offh.insert t "help");
  check_bool "prefix itself" true (T_offh.insert t "hell");
  check "word count" 3 (T_offh.word_count t);
  check_bool "contains hello" true (T_offh.contains t "hello");
  check_bool "contains hell" true (T_offh.contains t "hell");
  check_bool "no hel" false (T_offh.contains t "hel");
  check_bool "no h" false (T_offh.contains t "h");
  check_bool "no unrelated" false (T_offh.contains t "world");
  (* "hello"(5) + "p" = 6 nodes + root *)
  check "node count" 7 (T_offh.node_count t)

let test_trie_rejects_bad_words () =
  let _, _, nd = node () in
  let t = T_offh.create nd ~name:"t" in
  check_bool "empty" true
    (try
       ignore (T_offh.insert t "");
       false
     with Invalid_argument _ -> true);
  check_bool "uppercase" true
    (try
       ignore (T_offh.insert t "Hello");
       false
     with Invalid_argument _ -> true)

let test_trie_iter_words_sorted () =
  let _, _, nd = node () in
  let t = T_offh.create nd ~name:"t" in
  List.iter
    (fun w -> ignore (T_offh.insert t w))
    [ "banana"; "apple"; "app"; "cherry" ];
  let out = ref [] in
  T_offh.iter_words t (fun w -> out := w :: !out);
  Alcotest.(check (list string))
    "dfs yields lexicographic order"
    [ "app"; "apple"; "banana"; "cherry" ]
    (List.rev !out)

(* Cross-run persistence of whole structures, for every PI repr *)

let structure_survives_remap kind =
  let store = Store.create () in
  let m1 = Machine.create ~seed:50 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 22) in
  let r1 = Machine.open_region m1 rid in
  if kind = Repr.Based then Machine.set_based_region m1 rid;
  let nd1 = Node.make m1 ~mode:(Node.Plain [| r1 |]) ~payload:32 in
  let keys = Array.to_list (Nvmpi_experiments.Workload.keys ~n:200 ~seed:5) in
  let checksum1 =
    let open Nvmpi_experiments in
    let inst = Instance.create Instance.Btree kind nd1 ~name:"bst" in
    List.iter (fun k -> inst.Instance.insert k) keys;
    if kind = Repr.Swizzle then inst.Instance.unswizzle ();
    if kind = Repr.Swizzle then inst.Instance.swizzle ();
    let _, sum = inst.Instance.traverse () in
    if kind = Repr.Swizzle then inst.Instance.unswizzle ();
    sum
  in
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:51 ~store () in
  let r2 = Machine.open_region m2 rid in
  if kind = Repr.Based then Machine.set_based_region m2 rid;
  let nd2 = Node.make m2 ~mode:(Node.Plain [| r2 |]) ~payload:32 in
  let open Nvmpi_experiments in
  let inst = Instance.attach Instance.Btree kind nd2 ~name:"bst" in
  if kind = Repr.Swizzle then inst.Instance.swizzle ();
  let n, sum = inst.Instance.traverse () in
  n = List.length keys && sum = checksum1
  && List.for_all (fun k -> inst.Instance.search k) keys

let test_structures_survive_remap () =
  List.iter
    (fun kind ->
      check_bool (Repr.to_string kind ^ " bst survives") true
        (structure_survives_remap kind))
    [ Repr.Off_holder; Repr.Riv; Repr.Fat; Repr.Fat_cached; Repr.Based;
      Repr.Swizzle ]

(* Multi-region structures *)

let test_multi_region_roundrobin () =
  let _, m, nd = node ~regions:4 () in
  let module L = Nvmpi_structures.Linked_list.Make (Core.Riv) in
  let l = L.create nd ~name:"l" in
  for k = 1 to 20 do
    L.append l ~key:k
  done;
  check "all nodes reachable" 20 (L.length l);
  (* Consecutive nodes live in different regions. *)
  let rids = ref [] in
  L.iter l (fun ~addr ~key:_ ->
      rids := Machine.rid_of_addr_exn m addr :: !rids);
  let distinct = List.sort_uniq compare !rids in
  check "nodes spread over 4 regions" 4 (List.length distinct)

let test_multi_region_cross_pointers_work () =
  let _, _, nd = node ~regions:2 () in
  let module B = Nvmpi_structures.Bstree.Make (Core.Fat) in
  let t = B.create nd ~name:"t" in
  for k = 1 to 50 do
    ignore (B.insert t ~key:(k * 13 mod 53))
  done;
  check "size" 50 (B.size t);
  for k = 1 to 50 do
    check_bool "search" true (B.search t ~key:(k * 13 mod 53))
  done

(* Wrapped (transactional object store) mode *)

let test_wrapped_mode_structures () =
  let _, _, nd = node ~tx:true () in
  let module B = Nvmpi_structures.Bstree.Make (Core.Riv) in
  let t = B.create nd ~name:"t" in
  for k = 1 to 100 do
    ignore (B.insert t ~key:(k * 7 mod 101))
  done;
  check "size" 100 (B.size t);
  let n, _ = B.traverse t in
  check "traverse" 100 n

(* Swizzle passes over whole structures *)

let test_swizzle_list_pass () =
  let _, _, nd = node () in
  let l = L_swiz.create nd ~name:"l" in
  List.iter (fun k -> L_swiz.append l ~key:k) [ 1; 2; 3 ];
  let _, sum_before = L_swiz.traverse l in
  L_swiz.unswizzle l;
  L_swiz.swizzle l;
  let n, sum = L_swiz.traverse l in
  check "count" 3 n;
  check "checksum stable" sum_before sum

let test_swizzle_trie_pass () =
  let _, _, nd = node () in
  let t = T_swiz.create nd ~name:"t" in
  List.iter (fun w -> ignore (T_swiz.insert t w)) [ "cat"; "car"; "dog" ];
  let _, sum_before = T_swiz.traverse t in
  T_swiz.unswizzle t;
  T_swiz.swizzle t;
  check "words" 3 (T_swiz.word_count t);
  check "checksum stable" sum_before (snd (T_swiz.traverse t))

let test_swizzle_guard () =
  let _, _, nd = node () in
  let l = L_offh.create nd ~name:"l" in
  check_bool "non-swizzle repr rejected" true
    (try
       L_offh.swizzle l;
       false
     with Invalid_argument _ -> true)

(* Doubly linked list *)

module D_offh = Nvmpi_structures.Dllist.Make (Core.Off_holder)
module D_riv = Nvmpi_structures.Dllist.Make (Core.Riv)
module D_swiz = Nvmpi_structures.Dllist.Make (Core.Swizzle)

let test_dllist_push_and_walk () =
  let _, _, nd = node () in
  let d = D_offh.create nd ~name:"d" in
  D_offh.check d;
  List.iter (fun k -> D_offh.push_back d ~key:k) [ 1; 2; 3 ];
  D_offh.push_front d ~key:0;
  check "length" 4 (D_offh.length d);
  Alcotest.(check (list int)) "forward" [ 0; 1; 2; 3 ] (D_offh.to_list d);
  Alcotest.(check (list int)) "backward mirrors forward" [ 0; 1; 2; 3 ]
    (D_offh.to_list_rev d);
  D_offh.check d

let test_dllist_remove () =
  let _, _, nd = node () in
  let d = D_riv.create nd ~name:"d" in
  List.iter (fun k -> D_riv.push_back d ~key:k) [ 1; 2; 3; 4; 5 ];
  check_bool "remove middle" true (D_riv.remove d ~key:3);
  D_riv.check d;
  check_bool "remove head" true (D_riv.remove d ~key:1);
  D_riv.check d;
  check_bool "remove tail" true (D_riv.remove d ~key:5);
  D_riv.check d;
  check_bool "remove absent" false (D_riv.remove d ~key:99);
  Alcotest.(check (list int)) "rest" [ 2; 4 ] (D_riv.to_list d);
  Alcotest.(check (list int)) "rest backward" [ 2; 4 ] (D_riv.to_list_rev d);
  check_bool "remove all" true (D_riv.remove d ~key:2 && D_riv.remove d ~key:4);
  check "empty" 0 (D_riv.length d);
  D_riv.check d;
  (* Reusable after emptying. *)
  D_riv.push_back d ~key:7;
  Alcotest.(check (list int)) "reuse" [ 7 ] (D_riv.to_list d)

let test_dllist_attach_and_remap () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:70 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 20) in
  let r1 = Machine.open_region m1 rid in
  let nd1 = Node.make m1 ~mode:(Node.Plain [| r1 |]) ~payload:16 in
  let d1 = D_offh.create nd1 ~name:"d" in
  List.iter (fun k -> D_offh.push_back d1 ~key:k) [ 9; 8; 7 ];
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:71 ~store () in
  let r2 = Machine.open_region m2 rid in
  let nd2 = Node.make m2 ~mode:(Node.Plain [| r2 |]) ~payload:16 in
  let d2 = D_offh.attach nd2 ~name:"d" in
  D_offh.check d2;
  Alcotest.(check (list int)) "after remap" [ 9; 8; 7 ] (D_offh.to_list d2);
  Alcotest.(check (list int)) "backward after remap" [ 9; 8; 7 ]
    (D_offh.to_list_rev d2)

let test_dllist_swizzle_pass () =
  let _, _, nd = node () in
  let d = D_swiz.create nd ~name:"d" in
  List.iter (fun k -> D_swiz.push_back d ~key:k) [ 4; 5; 6 ];
  let before = D_swiz.to_list d in
  D_swiz.unswizzle d;
  D_swiz.swizzle d;
  Alcotest.(check (list int)) "stable" before (D_swiz.to_list d);
  D_swiz.check d

let prop_dllist_matches_reference =
  QCheck2.Test.make ~name:"dllist matches a reference deque" ~count:40
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (pair (int_range 0 2) (int_range 1 30)))
    (fun ops ->
      let _, _, nd = node () in
      let d = D_riv.create nd ~name:"d" in
      let reference = ref [] in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
              D_riv.push_front d ~key:k;
              reference := k :: !reference
          | 1 ->
              D_riv.push_back d ~key:k;
              reference := !reference @ [ k ]
          | _ ->
              let removed = D_riv.remove d ~key:k in
              let found = List.mem k !reference in
              if removed <> found then failwith "remove result mismatch";
              if found then begin
                let rec drop = function
                  | [] -> []
                  | x :: tl -> if x = k then tl else x :: drop tl
                in
                reference := drop !reference
              end)
        ops;
      D_riv.check d;
      D_riv.to_list d = !reference && D_riv.to_list_rev d = !reference)

(* Graph *)

module G_riv = Nvmpi_structures.Graph.Make (Core.Riv)
module G_fat = Nvmpi_structures.Graph.Make (Core.Fat)
module G_swiz = Nvmpi_structures.Graph.Make (Core.Swizzle)

let test_graph_basics () =
  let _, _, nd = node () in
  let g = G_riv.create nd ~name:"g" in
  check_bool "v1" true (G_riv.add_vertex g ~key:1);
  check_bool "v2" true (G_riv.add_vertex g ~key:2);
  check_bool "v3" true (G_riv.add_vertex g ~key:3);
  check_bool "dup vertex" false (G_riv.add_vertex g ~key:1);
  G_riv.add_edge g ~src:1 ~dst:2;
  G_riv.add_edge g ~src:1 ~dst:3;
  G_riv.add_edge g ~src:2 ~dst:3;
  check "vertices" 3 (G_riv.vertex_count g);
  check "edges" 3 (G_riv.edge_count g);
  Alcotest.(check (list int)) "successors newest-first" [ 3; 2 ]
    (G_riv.successors g ~key:1);
  check "reachable from 1" 3 (G_riv.reachable g ~from:1);
  check "reachable from 3" 1 (G_riv.reachable g ~from:3);
  check_bool "edge to missing vertex" true
    (try
       G_riv.add_edge g ~src:1 ~dst:99;
       false
     with Failure _ -> true)

let test_graph_cycle_bfs_terminates () =
  let _, _, nd = node () in
  let g = G_riv.create nd ~name:"g" in
  List.iter (fun k -> ignore (G_riv.add_vertex g ~key:k)) [ 1; 2; 3 ];
  G_riv.add_edge g ~src:1 ~dst:2;
  G_riv.add_edge g ~src:2 ~dst:3;
  G_riv.add_edge g ~src:3 ~dst:1;
  check "cycle reachable" 3 (G_riv.reachable g ~from:2);
  let n, _ = G_riv.traverse g in
  check "traverse counts vertices+edges" 6 n

let test_graph_cross_region () =
  (* Round-robin over 3 regions: edges constantly cross regions. *)
  let _, _, nd = node ~regions:3 () in
  let g = G_fat.create nd ~name:"g" in
  for k = 1 to 30 do
    ignore (G_fat.add_vertex g ~key:k)
  done;
  for k = 1 to 29 do
    G_fat.add_edge g ~src:k ~dst:(k + 1)
  done;
  check "chain reachable" 30 (G_fat.reachable g ~from:1);
  check "edges" 29 (G_fat.edge_count g)

let test_graph_survives_remap () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:80 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 20) in
  let r1 = Machine.open_region m1 rid in
  let nd1 = Node.make m1 ~mode:(Node.Plain [| r1 |]) ~payload:16 in
  let g1 = G_riv.create nd1 ~name:"g" in
  List.iter (fun k -> ignore (G_riv.add_vertex g1 ~key:k)) [ 1; 2; 3; 4 ];
  List.iter
    (fun (s, d) -> G_riv.add_edge g1 ~src:s ~dst:d)
    [ (1, 2); (2, 3); (3, 4); (4, 1); (1, 3) ];
  let sum1 = snd (G_riv.traverse g1) in
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:81 ~store () in
  let r2 = Machine.open_region m2 rid in
  let nd2 = Node.make m2 ~mode:(Node.Plain [| r2 |]) ~payload:16 in
  let g2 = G_riv.attach nd2 ~name:"g" in
  check "vertices survive" 4 (G_riv.vertex_count g2);
  check "edges survive" 5 (G_riv.edge_count g2);
  check "checksum stable" sum1 (snd (G_riv.traverse g2));
  check "reachability stable" 4 (G_riv.reachable g2 ~from:1)

let test_graph_swizzle_pass () =
  let _, _, nd = node () in
  let g = G_swiz.create nd ~name:"g" in
  List.iter (fun k -> ignore (G_swiz.add_vertex g ~key:k)) [ 1; 2; 3 ];
  G_swiz.add_edge g ~src:1 ~dst:2;
  G_swiz.add_edge g ~src:2 ~dst:3;
  G_swiz.add_edge g ~src:1 ~dst:3;
  let before = snd (G_swiz.traverse g) in
  G_swiz.unswizzle g;
  G_swiz.swizzle g;
  check "checksum stable" before (snd (G_swiz.traverse g));
  check "reachable" 3 (G_swiz.reachable g ~from:1)

let prop_graph_matches_reference =
  QCheck2.Test.make ~name:"graph reachability matches a reference BFS"
    ~count:25
    QCheck2.Gen.(
      pair (int_range 2 15)
        (list_size (int_range 1 40) (pair (int_range 1 15) (int_range 1 15))))
    (fun (nv, edges) ->
      let _, _, nd = node () in
      let g = G_riv.create nd ~name:"g" in
      for k = 1 to nv do
        ignore (G_riv.add_vertex g ~key:k)
      done;
      let edges =
        List.filter (fun (s, d) -> s <= nv && d <= nv) edges
      in
      List.iter (fun (s, d) -> G_riv.add_edge g ~src:s ~dst:d) edges;
      (* Host-side reference BFS. *)
      let adj = Array.make (nv + 1) [] in
      List.iter (fun (s, d) -> adj.(s) <- d :: adj.(s)) edges;
      let reference from =
        let seen = Array.make (nv + 1) false in
        let q = Queue.create () in
        seen.(from) <- true;
        Queue.push from q;
        let n = ref 0 in
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          incr n;
          List.iter
            (fun d ->
              if not seen.(d) then begin
                seen.(d) <- true;
                Queue.push d q
              end)
            adj.(v)
        done;
        !n
      in
      List.for_all
        (fun from -> G_riv.reachable g ~from = reference from)
        (List.init nv (fun i -> i + 1)))

(* B+ tree *)

module Bp_riv = Nvmpi_structures.Bplus.Make (Core.Riv)
module Bp_offh = Nvmpi_structures.Bplus.Make (Core.Off_holder)
module Bp_swiz = Nvmpi_structures.Bplus.Make (Core.Swizzle)

let test_bplus_basics () =
  let _, _, nd = node () in
  let t = Bp_riv.create nd ~name:"bp" ~order:4 () in
  Bp_riv.check t;
  check_bool "empty lookup" true (Bp_riv.lookup t ~key:1 = None);
  for k = 1 to 100 do
    Bp_riv.insert t ~key:(k * 17 mod 101) ~value:(k * 17 mod 101 * 2);
    Bp_riv.check t
  done;
  check "size" 100 (Bp_riv.size t);
  check_bool "depth grew" true (Bp_riv.depth t > 1);
  for k = 1 to 100 do
    let key = k * 17 mod 101 in
    check_bool "found" true (Bp_riv.lookup t ~key = Some (key * 2))
  done;
  check_bool "absent" true (Bp_riv.lookup t ~key:999 = None);
  (* Overwrite. *)
  Bp_riv.insert t ~key:50 ~value:777;
  check_bool "overwrite" true (Bp_riv.lookup t ~key:50 = Some 777);
  check "size unchanged" 100 (Bp_riv.size t)

let test_bplus_sorted_iteration_and_range () =
  let _, _, nd = node () in
  let t = Bp_offh.create nd ~name:"bp" ~order:5 () in
  let keys = [ 50; 10; 90; 30; 70; 20; 80; 40; 60; 100 ] in
  List.iter (fun k -> Bp_offh.insert t ~key:k ~value:(-k)) keys;
  Bp_offh.check t;
  Alcotest.(check (list (pair int int)))
    "to_list ascending"
    (List.map (fun k -> (k, -k)) (List.sort compare keys))
    (Bp_offh.to_list t);
  Alcotest.(check (list (pair int int)))
    "range [25,75]"
    [ (30, -30); (40, -40); (50, -50); (60, -60); (70, -70) ]
    (Bp_offh.range t ~lo:25 ~hi:75);
  Alcotest.(check (option (pair int int)))
    "min binding" (Some (10, -10)) (Bp_offh.min_binding t);
  Alcotest.(check (list (pair int int))) "empty range" []
    (Bp_offh.range t ~lo:101 ~hi:200)

let test_bplus_delete () =
  let _, _, nd = node () in
  let t = Bp_riv.create nd ~name:"bp" ~order:4 () in
  for k = 1 to 60 do
    Bp_riv.insert t ~key:k ~value:k
  done;
  check_bool "delete present" true (Bp_riv.delete t ~key:30);
  check_bool "delete absent" false (Bp_riv.delete t ~key:30);
  Bp_riv.check t;
  check "size after delete" 59 (Bp_riv.size t);
  check_bool "gone" true (Bp_riv.lookup t ~key:30 = None);
  check_bool "neighbours intact" true
    (Bp_riv.lookup t ~key:29 = Some 29 && Bp_riv.lookup t ~key:31 = Some 31)

let test_bplus_survives_remap () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:85 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 21) in
  let r1 = Machine.open_region m1 rid in
  let nd1 = Node.make m1 ~mode:(Node.Plain [| r1 |]) ~payload:0 in
  let t1 = Bp_offh.create nd1 ~name:"bp" ~order:4 () in
  for k = 1 to 200 do
    Bp_offh.insert t1 ~key:k ~value:(k * 3)
  done;
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:86 ~store () in
  let r2 = Machine.open_region m2 rid in
  let nd2 = Node.make m2 ~mode:(Node.Plain [| r2 |]) ~payload:0 in
  let t2 = Bp_offh.attach nd2 ~name:"bp" in
  Bp_offh.check t2;
  check "size survives" 200 (Bp_offh.size t2);
  check_bool "values survive" true (Bp_offh.lookup t2 ~key:123 = Some 369);
  (* Keep inserting in the new run; splits still work. *)
  for k = 201 to 300 do
    Bp_offh.insert t2 ~key:k ~value:(k * 3)
  done;
  Bp_offh.check t2;
  check "extended" 300 (Bp_offh.size t2)

let test_bplus_swizzle_pass () =
  let _, _, nd = node () in
  let t = Bp_swiz.create nd ~name:"bp" ~order:4 () in
  for k = 1 to 80 do
    Bp_swiz.insert t ~key:k ~value:(k + 1000)
  done;
  let before = Bp_swiz.to_list t in
  Bp_swiz.unswizzle t;
  Bp_swiz.swizzle t;
  Bp_swiz.check t;
  Alcotest.(check (list (pair int int))) "stable" before (Bp_swiz.to_list t)

let prop_bplus_range_matches_filter =
  QCheck2.Test.make ~name:"b+ tree range queries match list filtering"
    ~count:30
    QCheck2.Gen.(
      tup3
        (list_size (int_range 1 120) (int_range 1 200))
        (int_range 0 210) (int_range 0 210))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let _, _, nd = node () in
      let t = Bp_riv.create nd ~name:"bp" ~order:4 () in
      List.iter (fun k -> Bp_riv.insert t ~key:k ~value:(k * 2)) keys;
      let expected =
        List.sort_uniq compare keys
        |> List.filter (fun k -> k >= lo && k <= hi)
        |> List.map (fun k -> (k, k * 2))
      in
      Bp_riv.range t ~lo ~hi = expected)

let prop_bplus_matches_map =
  QCheck2.Test.make ~name:"b+ tree matches a reference map" ~count:30
    QCheck2.Gen.(
      pair (int_range 3 9)
        (list_size (int_range 1 250)
           (pair (int_range 0 2) (int_range 1 120))))
    (fun (order, ops) ->
      let _, _, nd = node () in
      let t = Bp_riv.create nd ~name:"bp" ~order () in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 | 1 ->
              Bp_riv.insert t ~key:k ~value:(k * 7);
              Hashtbl.replace reference k (k * 7)
          | _ ->
              let a = Bp_riv.delete t ~key:k in
              let b = Hashtbl.mem reference k in
              Hashtbl.remove reference k;
              if a <> b then failwith "delete mismatch")
        ops;
      Bp_riv.check t;
      Bp_riv.size t = Hashtbl.length reference
      && Hashtbl.fold
           (fun k v acc -> acc && Bp_riv.lookup t ~key:k = Some v)
           reference true
      && Bp_riv.to_list t
         = List.sort compare
             (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reference []))

(* Edge cases *)

let test_empty_structures () =
  let _, _, nd = node () in
  let l = L_norm.create nd ~name:"l" in
  check_bool "empty find" false (L_norm.find l ~key:1);
  let h = H_riv.create nd ~name:"h" ~buckets:4 in
  check "empty hashset traverse" 0 (fst (H_riv.traverse h));
  check_bool "empty contains" false (H_riv.contains h ~key:1);
  let t = B_riv.create nd ~name:"b" in
  check "empty bst size" 0 (B_riv.size t);
  check "empty bst depth" 0 (B_riv.depth t);
  let tr = T_offh.create nd ~name:"t" in
  check "empty trie words" 0 (T_offh.word_count tr);
  check "empty trie nodes" 0 (T_offh.node_count tr);
  let d = D_riv.create nd ~name:"d" in
  Alcotest.(check (list int)) "empty dllist" [] (D_riv.to_list d);
  check_bool "empty dllist remove" false (D_riv.remove d ~key:1);
  let bp = Bp_riv.create nd ~name:"bp" () in
  check "empty bplus size" 0 (Bp_riv.size bp);
  Alcotest.(check (option (pair int int))) "empty min" None
    (Bp_riv.min_binding bp)

let test_trie_long_and_single () =
  let _, _, nd = node () in
  let t = T_offh.create nd ~name:"t" in
  ignore (T_offh.insert t "a");
  ignore (T_offh.insert t "abcdefghijklmnopqrstuvwxyz");
  check "two words" 2 (T_offh.word_count t);
  check_bool "single letter" true (T_offh.contains t "a");
  check_bool "alphabet" true (T_offh.contains t "abcdefghijklmnopqrstuvwxyz");
  (* root node + one node per letter of the alphabet *)
  check "nodes = root + 26" 27 (T_offh.node_count t)

let test_bplus_minimum_order () =
  let _, _, nd = node () in
  let t = Bp_riv.create nd ~name:"bp" ~order:3 () in
  for k = 1 to 50 do
    Bp_riv.insert t ~key:k ~value:k;
    Bp_riv.check t
  done;
  check "all present at order 3" 50 (Bp_riv.size t);
  check_bool "bad order rejected" true
    (try
       ignore (Bp_riv.create nd ~name:"bp2" ~order:2 ());
       false
     with Invalid_argument _ -> true)

let test_payload_zero () =
  (* Structures work with no payload at all. *)
  let _, _, nd = node ~payload:0 () in
  let l = L_norm.create nd ~name:"l" in
  List.iter (fun k -> L_norm.append l ~key:k) [ 1; 2; 3 ];
  let n, sum = L_norm.traverse l in
  check "count" 3 n;
  check "checksum = key sum" 6 sum

(* Fault injection: corrupting a stored pointer must surface as a fault
   or an exception, never as a silent wrong traversal. *)

let test_corrupt_normal_pointer_faults () =
  let _, m, nd = node () in
  let l = L_norm.create nd ~name:"l" in
  List.iter (fun k -> L_norm.append l ~key:k) [ 1; 2; 3; 4 ];
  (* Overwrite the second node's next-slot with a wild absolute address
     (unmapped virtual memory). *)
  let second = ref Core.Kinds.Vaddr.null in
  L_norm.iter l (fun ~addr ~key -> if key = 2 then second := addr);
  Core.Memsim.store64 m.Machine.mem !second 0x1234_5678_0000;
  check_bool "traverse faults on wild pointer" true
    (try
       ignore (L_norm.traverse l);
       false
     with Core.Memsim.Fault _ -> true)

let test_corrupt_riv_pointer_detected () =
  let _, m, nd = node () in
  let module L = Nvmpi_structures.Linked_list.Make (Core.Riv) in
  let l = L.create nd ~name:"l" in
  List.iter (fun k -> L.append l ~key:k) [ 1; 2; 3 ];
  let second = ref Core.Kinds.Vaddr.null in
  L.iter l (fun ~addr ~key -> if key = 2 then second := addr);
  (* A packed RIV value naming a region that is not open. *)
  Core.Memsim.store64 m.Machine.mem !second
    (Core.Layout.riv_pack m.Machine.layout ~rid:999 ~offset:4096);
  check_bool "riv names the bogus region" true
    (try
       ignore (L.traverse l);
       false
     with Core.Nvspace.Unknown_region { rid } -> (rid :> int) = 999)

let test_corrupt_payload_changes_checksum () =
  let _, m, nd = node ~payload:32 () in
  let l = L_norm.create nd ~name:"l" in
  List.iter (fun k -> L_norm.append l ~key:k) [ 1; 2; 3 ];
  let _, sum_before = L_norm.traverse l in
  let second = ref Core.Kinds.Vaddr.null in
  L_norm.iter l (fun ~addr ~key -> if key = 2 then second := addr);
  (* Flip one payload byte (payload starts after next-slot and key). *)
  let payload_addr = Core.Kinds.Vaddr.add !second (8 + 8) in
  let b = Core.Memsim.load8 m.Machine.mem payload_addr in
  Core.Memsim.store8 m.Machine.mem payload_addr (b lxor 0xFF);
  let _, sum_after = L_norm.traverse l in
  check_bool "checksum detects payload corruption" true
    (sum_before <> sum_after)

(* Properties *)

(* Bstree removal: leaf, one-child, two-child (root and interior). *)

let expected_checksum ?(payload = 32) keys =
  List.fold_left
    (fun acc k -> acc + k + Node.payload_checksum ~payload ~seed:k)
    0 keys

let test_bst_remove_cases () =
  let _, _, nd = node () in
  let t = B_riv.create nd ~name:"t" in
  let keys = [ 50; 30; 70; 20; 40; 60; 80; 35; 45 ] in
  List.iter (fun k -> ignore (B_riv.insert t ~key:k)) keys;
  check_bool "absent" false (B_riv.remove t ~key:99);
  check_bool "leaf" true (B_riv.remove t ~key:20);
  check_bool "two children (interior)" true (B_riv.remove t ~key:40);
  check_bool "one child" true (B_riv.remove t ~key:30);
  check_bool "two children (root)" true (B_riv.remove t ~key:50);
  check_bool "removed gone" false (B_riv.search t ~key:50);
  let live = [ 35; 45; 60; 70; 80 ] in
  List.iter (fun k -> check_bool "survivor" true (B_riv.search t ~key:k)) live;
  check "size" 5 (B_riv.size t);
  let n, sum = B_riv.traverse t in
  check "traverse count" 5 n;
  check "traverse checksum" (expected_checksum live) sum;
  check_bool "re-insert after remove" true (B_riv.insert t ~key:50);
  check "size after re-insert" 6 (B_riv.size t)

let prop_bst_remove_matches_set =
  QCheck2.Test.make ~name:"bst insert/remove matches a reference set"
    ~count:40
    QCheck2.Gen.(list_size (int_range 1 150) (int_range 1 40))
    (fun keys ->
      let _, _, nd = node () in
      let t = B_offh.create nd ~name:"t" in
      let reference = Hashtbl.create 64 in
      List.iteri
        (fun i k ->
          if i mod 3 = 2 then begin
            let present = Hashtbl.mem reference k in
            Hashtbl.remove reference k;
            if B_offh.remove t ~key:k <> present then
              failwith "remove result mismatch"
          end
          else begin
            let fresh = not (Hashtbl.mem reference k) in
            Hashtbl.replace reference k ();
            if B_offh.insert t ~key:k <> fresh then
              failwith "insert result mismatch"
          end)
        keys;
      B_offh.size t = Hashtbl.length reference
      && Hashtbl.fold
           (fun k () acc -> acc && B_offh.search t ~key:k)
           reference true
      && not (B_offh.search t ~key:0))

(* Durable (link-and-persist) mode: docs/DURABLE.md. *)

(* The same insert/remove history must yield identical observable state
   on eager and traverse machines — durability actions never change
   contents. *)
let test_durable_matches_eager () =
  let drive_bst nd =
    let t = B_riv.create nd ~name:"t" in
    List.iter (fun k -> ignore (B_riv.insert t ~key:k)) [ 5; 3; 9; 1; 4; 7 ];
    List.iter (fun k -> ignore (B_riv.remove t ~key:k)) [ 3; 9 ];
    B_riv.traverse t
  in
  let drive_hash nd =
    let h = H_riv.create nd ~name:"h" ~buckets:4 in
    List.iter (fun k -> ignore (H_riv.add h ~key:k)) [ 2; 6; 10; 14; 18 ];
    List.iter (fun k -> ignore (H_riv.remove h ~key:k)) [ 6; 18 ];
    H_riv.traverse h
  in
  let _, _, nd_e = node ~durability:Durability.Eager () in
  let _, _, nd_t = node ~durability:Durability.Traverse () in
  Alcotest.(check (pair int int))
    "bstree digests equal" (drive_bst nd_e) (drive_bst nd_t);
  let _, _, nd_e = node ~durability:Durability.Eager () in
  let _, _, nd_t = node ~durability:Durability.Traverse () in
  Alcotest.(check (pair int int))
    "hashset digests equal" (drive_hash nd_e) (drive_hash nd_t)

(* Traversal freedom + window accounting: reads flush nothing; each
   mutation pays a bounded window; marks never stay set. *)
let test_durable_flush_accounting () =
  let _, m, nd = node ~durability:Durability.Traverse () in
  let h = H_riv.create nd ~name:"h" ~buckets:4 in
  List.iter (fun k -> ignore (H_riv.add h ~key:k)) [ 1; 5; 9; 13; 17; 21 ];
  let counter name snap = Option.value ~default:0 (List.assoc_opt name snap) in
  let metrics = Machine.metrics m in
  let before = Metrics.snapshot metrics in
  for k = 1 to 24 do
    ignore (H_riv.contains h ~key:k)
  done;
  let reads = Metrics.diff ~before ~after:(Metrics.snapshot metrics) in
  check "reads flush nothing" 0 (counter "timing.flushes" reads);
  check "reads fence nothing" 0 (counter "timing.fences" reads);
  check_bool "traversal loads counted" true
    (counter "dur.traversal_loads" reads > 0);
  let before = Metrics.snapshot metrics in
  ignore (H_riv.add h ~key:2);
  ignore (H_riv.remove h ~key:2);
  let writes = Metrics.diff ~before ~after:(Metrics.snapshot metrics) in
  check_bool "windows flush" true (counter "dur.window_flushes" writes > 0);
  check_bool "windows fence" true (counter "timing.fences" writes > 0);
  let snap = Metrics.snapshot metrics in
  check "marks all cleared" (counter "dur.marks_set" snap)
    (counter "dur.marks_cleared" snap);
  check "no helper flush without a crash" 0 (counter "dur.helper_flushes" snap)

(* Eager-mode structures must not even register the dur.* counters —
   the guarantee that keeps BENCH_seed.json byte-identical. *)
let test_eager_registers_no_dur_counters () =
  let _, m, nd = node ~durability:Durability.Eager () in
  let h = H_riv.create nd ~name:"h" ~buckets:4 in
  List.iter (fun k -> ignore (H_riv.add h ~key:k)) [ 1; 5; 9 ];
  ignore (H_riv.remove h ~key:5);
  ignore (H_riv.contains h ~key:1);
  let snap = Metrics.snapshot (Machine.metrics m) in
  check_bool "no dur.* counter registered" true
    (List.for_all
       (fun (name, _) -> not (String.length name >= 4 && String.sub name 0 4 = "dur."))
       snap)

let prop_bst_matches_set_semantics =
  QCheck2.Test.make ~name:"bst matches a reference set" ~count:40
    QCheck2.Gen.(list_size (int_range 1 150) (int_range 1 80))
    (fun keys ->
      let _, _, nd = node () in
      let t = B_riv.create nd ~name:"t" in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun k ->
          let fresh = not (Hashtbl.mem reference k) in
          Hashtbl.replace reference k ();
          let inserted = B_riv.insert t ~key:k in
          if inserted <> fresh then failwith "insert result mismatch")
        keys;
      B_riv.size t = Hashtbl.length reference
      && Hashtbl.fold (fun k () acc -> acc && B_riv.search t ~key:k) reference true
      && not (B_riv.search t ~key:0))

let prop_hashset_matches_set_semantics =
  QCheck2.Test.make ~name:"hashset matches a reference set" ~count:40
    QCheck2.Gen.(list_size (int_range 1 150) (int_range 1 80))
    (fun keys ->
      let _, _, nd = node () in
      let h = H_riv.create nd ~name:"h" ~buckets:8 in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun k ->
          Hashtbl.replace reference k ();
          ignore (H_riv.add h ~key:k))
        keys;
      H_riv.size h = Hashtbl.length reference
      && Hashtbl.fold
           (fun k () acc -> acc && H_riv.contains h ~key:k)
           reference true)

let prop_trie_matches_reference =
  QCheck2.Test.make ~name:"trie matches a reference set of words" ~count:30
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 1 10_000))
    (fun keys ->
      let _, _, nd = node () in
      let t = T_offh.create nd ~name:"t" in
      let words = List.map Nvmpi_experiments.Workload.key_word keys in
      let reference = List.sort_uniq compare words in
      List.iter (fun w -> ignore (T_offh.insert t w)) words;
      T_offh.word_count t = List.length reference
      && List.for_all (fun w -> T_offh.contains t w) reference)

let () =
  Alcotest.run "structures"
    [
      ( "list",
        [
          Alcotest.test_case "append + traverse" `Quick
            test_list_append_traverse;
          Alcotest.test_case "push_front" `Quick test_list_push_front;
          Alcotest.test_case "find" `Quick test_list_find;
          Alcotest.test_case "attach" `Quick test_list_attach_same_run;
          Alcotest.test_case "attach kind mismatch" `Quick
            test_list_attach_wrong_kind;
          Alcotest.test_case "payload checksum" `Quick
            test_list_payload_checksum;
        ] );
      ( "bstree",
        [
          Alcotest.test_case "insert + search" `Quick test_bst_insert_search;
          Alcotest.test_case "traverse counts" `Quick test_bst_traverse_counts;
          Alcotest.test_case "insert_count" `Quick test_bst_insert_count;
          Alcotest.test_case "remove" `Quick test_bst_remove_cases;
        ] );
      ( "durable",
        [
          Alcotest.test_case "traverse matches eager" `Quick
            test_durable_matches_eager;
          Alcotest.test_case "flush accounting" `Quick
            test_durable_flush_accounting;
          Alcotest.test_case "eager registers no dur counters" `Quick
            test_eager_registers_no_dur_counters;
        ] );
      ( "hashset",
        [
          Alcotest.test_case "basics" `Quick test_hashset_basics;
          Alcotest.test_case "chain order" `Quick test_hashset_chain_order;
        ] );
      ( "trie",
        [
          Alcotest.test_case "insert + contains" `Quick
            test_trie_insert_contains;
          Alcotest.test_case "bad words rejected" `Quick
            test_trie_rejects_bad_words;
          Alcotest.test_case "words sorted" `Quick test_trie_iter_words_sorted;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "all PI reprs survive remap" `Slow
            test_structures_survive_remap;
        ] );
      ( "multi-region",
        [
          Alcotest.test_case "round-robin placement" `Quick
            test_multi_region_roundrobin;
          Alcotest.test_case "cross-region pointers" `Quick
            test_multi_region_cross_pointers_work;
        ] );
      ( "wrapped",
        [ Alcotest.test_case "objstore-backed bst" `Quick
            test_wrapped_mode_structures ] );
      ( "swizzle",
        [
          Alcotest.test_case "list pass" `Quick test_swizzle_list_pass;
          Alcotest.test_case "trie pass" `Quick test_swizzle_trie_pass;
          Alcotest.test_case "guard" `Quick test_swizzle_guard;
        ] );
      ( "dllist",
        [
          Alcotest.test_case "push + walk both ways" `Quick
            test_dllist_push_and_walk;
          Alcotest.test_case "remove" `Quick test_dllist_remove;
          Alcotest.test_case "attach + remap" `Quick
            test_dllist_attach_and_remap;
          Alcotest.test_case "swizzle pass" `Quick test_dllist_swizzle_pass;
          QCheck_alcotest.to_alcotest prop_dllist_matches_reference;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "cycles terminate" `Quick
            test_graph_cycle_bfs_terminates;
          Alcotest.test_case "cross-region edges" `Quick
            test_graph_cross_region;
          Alcotest.test_case "survives remap" `Quick test_graph_survives_remap;
          Alcotest.test_case "swizzle pass" `Quick test_graph_swizzle_pass;
          QCheck_alcotest.to_alcotest prop_graph_matches_reference;
        ] );
      ( "bplus",
        [
          Alcotest.test_case "basics + splits" `Quick test_bplus_basics;
          Alcotest.test_case "sorted iteration + range" `Quick
            test_bplus_sorted_iteration_and_range;
          Alcotest.test_case "delete" `Quick test_bplus_delete;
          Alcotest.test_case "survives remap" `Quick test_bplus_survives_remap;
          Alcotest.test_case "swizzle pass" `Quick test_bplus_swizzle_pass;
          QCheck_alcotest.to_alcotest prop_bplus_matches_map;
          QCheck_alcotest.to_alcotest prop_bplus_range_matches_filter;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty structures" `Quick test_empty_structures;
          Alcotest.test_case "trie extremes" `Quick test_trie_long_and_single;
          Alcotest.test_case "bplus minimum order" `Quick
            test_bplus_minimum_order;
          Alcotest.test_case "zero payload" `Quick test_payload_zero;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "wild absolute pointer faults" `Quick
            test_corrupt_normal_pointer_faults;
          Alcotest.test_case "corrupt RIV value detected" `Quick
            test_corrupt_riv_pointer_detected;
          Alcotest.test_case "payload corruption detected" `Quick
            test_corrupt_payload_changes_checksum;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_bst_matches_set_semantics;
          QCheck_alcotest.to_alcotest prop_bst_remove_matches_set;
          QCheck_alcotest.to_alcotest prop_hashset_matches_set_semantics;
          QCheck_alcotest.to_alcotest prop_trie_matches_reference;
        ] );
    ]
