module Repr = Core.Repr
module Timing_config = Nvmpi_cachesim.Timing_config
module Json = Nvmpi_obs.Json

let scaled scale n = max 100 (int_of_float (float_of_int n *. scale))
let seeded = Figures.seeded

(* Shared slowdown runner against a per-structure normal baseline. *)
let sweep cfg reprs = Figures.slowdowns cfg reprs

let cells results =
  List.map (fun (_, o) -> Table.cell_opt (Figures.value o)) results

let translation ?(scale = 1.0) ?seed ?durability () =
  let reprs = [ Repr.Hw_oid; Repr.Riv; Repr.Packed_fat; Repr.Fat ] in
  let rows, records =
    List.split
      (List.map
         (fun structure ->
           let cfg =
             seeded ?durability seed
               {
                 Runner.default with
                 Runner.structure;
                 elems = scaled scale 10_000;
                 traversals = 10;
               }
           in
           let (_, results) as run = sweep cfg reprs in
           let name = Instance.structure_name structure in
           (name :: cells results, Figures.sweep_record ~row:name run))
         Instance.structures)
  in
  {
    Table.title =
      "Ablation: translation mechanism (same packed format, different \
       ID-to-base translation)";
    header = [ "structure"; "hw-oid (hypothetical)"; "riv (direct-mapped)";
               "packed-fat (hashtable)"; "fat (2-word + hashtable)" ];
    rows;
    notes =
      [
        "riv vs packed-fat isolates the direct-mapped tables; packed-fat \
         vs fat isolates the slot size";
        "hw-oid models hardware-assisted translation (Wang et al. 2017) at \
         a fixed 2-cycle table hit: the headroom left above RIV";
      ];
    records;
  }

let latency_sweep ?(scale = 1.0) ?seed ?durability () =
  let latencies = [ 150; 300; 600; 1200 ] in
  let reprs = [ Repr.Off_holder; Repr.Riv; Repr.Fat ] in
  let rows, records =
    List.split
      (List.map
         (fun nvm_read ->
           (* Cold caches + a single traversal: every node load actually
              reaches the emulated NVM. *)
           let cfg =
             seeded ?durability seed
               {
                 Runner.default with
                 Runner.elems = scaled scale 10_000;
                 traversals = 1;
                 cold = true;
               }
           in
           let cfg =
             { cfg with
               Runner.timing =
                 { Timing_config.default with Timing_config.nvm_read;
                   nvm_write = 2 * nvm_read } }
           in
           let (_, results) as run = Figures.slowdowns cfg reprs in
           ( string_of_int nvm_read :: cells results,
             Figures.sweep_record
               ~row:(Printf.sprintf "nvm_read %d" nvm_read)
               run ))
         latencies)
  in
  {
    Table.title = "Ablation: sensitivity to emulated NVM read latency (cycles)";
    header = [ "nvm read lat"; "off-holder"; "riv"; "fat" ];
    rows;
    notes =
      [
        "cold-cache single traversal; NVM write latency follows at 2x the \
         read latency";
        "higher NVM latency shrinks every method's relative overhead, as \
         misses dominate";
      ];
    records;
  }

let cache_pressure ?(scale = 1.0) ?seed ?durability () =
  let sizes = [ 1_000; 10_000; 50_000 ] in
  let reprs = [ Repr.Off_holder; Repr.Riv; Repr.Fat ] in
  let rows, records =
    List.split
      (List.map
         (fun n ->
           let cfg =
             seeded ?durability seed
               {
                 Runner.default with
                 Runner.elems = scaled scale n;
                 traversals = 10;
               }
           in
           let (_, results) as run = Figures.slowdowns cfg reprs in
           let name = string_of_int (scaled scale n) in
           ( name :: cells results,
             Figures.sweep_record ~row:(name ^ " elements") run ))
         sizes)
  in
  {
    Table.title =
      "Ablation: working-set size (fat pointers double slot bytes, \
       spilling caches earlier)";
    header = [ "elements"; "off-holder"; "riv"; "fat" ];
    rows;
    notes = [ "list traversal, 32 B payload, single region" ];
    records;
  }

(* Where the cycles go: per-representation memory-system behaviour for
   one traversal workload. *)
let cache_stats ?(scale = 1.0) ?seed ?durability () =
  let reprs =
    [ Repr.Normal; Repr.Based; Repr.Off_holder; Repr.Riv; Repr.Fat ]
  in
  let rows, records =
    List.split
      (List.map
         (fun repr ->
           let cfg =
             seeded ?durability seed
               {
                 Runner.default with
                 Runner.repr;
                 elems = scaled scale 10_000;
                 traversals = 10;
               }
           in
           let m = Runner.run cfg in
           let count name = Runner.counter name m.Runner.counters in
           let rate level =
             let hits = count ("cache." ^ level ^ ".hits") in
             let total = hits + count ("cache." ^ level ^ ".misses") in
             if total = 0 then "-"
             else
               Printf.sprintf "%.1f%%"
                 (100.0 *. float_of_int hits /. float_of_int total)
           in
           ( [
               Repr.to_string repr;
               rate "l1";
               rate "l2";
               rate "l3";
               string_of_int (count "mem.nvm_reads");
               string_of_int (count "timing.alu_cycles");
               Printf.sprintf "%.0f" m.Runner.per_op;
             ],
             Figures.row_json ~row:(Repr.to_string repr)
               [ Figures.cell_json ~label:(Repr.to_string repr) m ] ))
         reprs)
  in
  {
    Table.title = "Ablation: memory-system behaviour per representation \
                   (list traversal, measured phase only)";
    header =
      [ "repr"; "L1 hit"; "L2 hit"; "L3 hit"; "nvm reads"; "alu cycles";
        "cycles/traversal" ];
    rows;
    notes =
      [
        "fat pointers double slot bytes and add hashtable work: visible as \
         extra ALU cycles and lower hit rates";
      ];
    records;
  }

(* The Figure 12 experiment repeated on the structures this library adds
   beyond the paper's four. *)
let extension_structures ?(scale = 1.0) ?seed ?durability () =
  let reprs = [ Repr.Swizzle; Repr.Fat; Repr.Riv; Repr.Off_holder; Repr.Based ] in
  let rows, records =
    List.split
      (List.map
         (fun structure ->
           (* Vertex insertion scans the vertex registry, so graph
              population is quadratic in element count; 2000 vertices keep
              the populate phase tractable without changing the measured
              traversal shape. *)
           let elems =
             match structure with
             | Instance.Graph -> scaled scale 2_000
             | _ -> scaled scale 10_000
           in
           let cfg =
             seeded ?durability seed
               { Runner.default with Runner.structure; elems; traversals = 10 }
           in
           let (_, results) as run =
             Figures.slowdowns ~swizzle_single_use:true cfg reprs
           in
           let name = Instance.structure_name structure in
           (name :: cells results, Figures.sweep_record ~row:name run))
         Instance.extension_structures)
  in
  {
    Table.title =
      "Extension structures: slowdown vs normal pointers (same setting as \
       Figure 12)";
    header =
      "structure" :: List.map Repr.to_string reprs;
    rows;
    notes =
      [
        "doubly linked list, directed graph (vertex chain) and B+ tree; \
         not part of the paper's evaluation";
      ];
    records;
  }

let all ?(scale = 1.0) ?seed ?durability () =
  [ translation ~scale ?seed ?durability ();
    latency_sweep ~scale ?seed ?durability ();
    cache_pressure ~scale ?seed ?durability ();
    cache_stats ~scale ?seed ?durability ();
    extension_structures ~scale ?seed ?durability () ]
