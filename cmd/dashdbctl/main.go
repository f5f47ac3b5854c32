// Command dashdbctl is the cluster operations CLI: it deploys a simulated
// multi-host cluster, then drives the §II.E lifecycle — status, failover,
// elastic scale-in/scale-out — against an interactive prompt, so the
// Figure 9 mechanics can be explored by hand.
//
//	dashdbctl -nodes 4 -cores 24
//
// With -connect it instead coordinates a real multi-process cluster of
// shard servers (dashdb-local -shard-listen) sharing one clustered
// filesystem directory:
//
//	dashdbctl -connect 127.0.0.1:8060,127.0.0.1:8061 -clusterfs /mnt/cfs -shards 4
//
// Commands at the prompt:
//
//	status                      shard→node association
//	fail <node>                 declare a node dead (HA failover)
//	remove <node>               elastic contraction (alias: shrink)
//	add <node> [<addr>]         elastic growth / reinstatement (alias: grow);
//	                            net mode: <addr> is the running shard server to adopt
//	sql <statement>             run SQL cluster-wide
//	load <table> <rows>         generate and load synthetic rows
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"dashdb"
	"dashdb/internal/clusterfs"
)

func main() {
	nodes := flag.Int("nodes", 4, "cluster size")
	cores := flag.Int("cores", 24, "cores per node")
	ramGB := flag.Int64("ram", 256, "GB RAM per node")
	connect := flag.String("connect", "", "comma-separated shard-server addresses (net mode)")
	cfsDir := flag.String("clusterfs", "", "net mode: shared clustered filesystem directory")
	shards := flag.Int("shards", 0, "net mode: shard count for a fresh cluster (default: one per node)")
	flag.Parse()

	var cl *dashdb.Cluster
	if *connect != "" {
		cl = connectCluster(*connect, *cfsDir, *shards, *cores, *ramGB)
	} else {
		var hosts []dashdb.HostSpec
		for i := 0; i < *nodes; i++ {
			hosts = append(hosts, dashdb.HostSpec{
				Name:     fmt.Sprintf("%c", 'A'+i%26),
				Cores:    *cores,
				RAMBytes: *ramGB << 30,
			})
		}
		fmt.Printf("deploying %d-node cluster...\n", *nodes)
		var err error
		if cl, err = dashdb.Deploy(hosts); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("deployed in %.1f simulated minutes\n", cl.DeployTime.Minutes())
	}
	defer cl.Close()
	fmt.Printf("association: %s\n", cl.Assignment())

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("dashdbctl> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch cmd := strings.ToLower(fields[0]); cmd {
		case "quit", "exit":
			return
		case "status":
			fmt.Println(cl.Assignment())
		case "fail", "remove", "shrink":
			if len(fields) != 2 {
				fmt.Printf("usage: %s <node>\n", cmd)
				continue
			}
			var err error
			if cmd == "fail" {
				err = cl.FailNode(fields[1])
			} else {
				err = cl.RemoveNode(fields[1])
			}
			if err != nil {
				fmt.Println("ERR", err)
				continue
			}
			fmt.Println(cl.Assignment())
		case "add", "grow":
			spec := dashdb.NodeSpec{Cores: *cores, MemBytes: *ramGB << 30}
			switch len(fields) {
			case 2:
				spec.Name = fields[1]
			case 3:
				spec.Name, spec.Addr = fields[1], fields[2]
			default:
				fmt.Printf("usage: %s <node> [<addr>]\n", cmd)
				continue
			}
			if err := cl.AddNode(spec); err != nil {
				fmt.Println("ERR", err)
				continue
			}
			fmt.Println(cl.Assignment())
		case "sql":
			stmt := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
			r, err := cl.Exec(stmt)
			if err != nil {
				fmt.Println("ERR", err)
				continue
			}
			printResult(r)
		case "load":
			if len(fields) != 3 {
				fmt.Println("usage: load <table> <rows>")
				continue
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				fmt.Println("ERR", err)
				continue
			}
			if _, err := cl.Exec(fmt.Sprintf(
				`CREATE TABLE IF NOT EXISTS %s (id BIGINT NOT NULL, v DOUBLE)`, fields[1])); err != nil {
				fmt.Println("ERR", err)
				continue
			}
			var rows []dashdb.Row
			for i := 0; i < n; i++ {
				rows = append(rows, dashdb.Row{dashdb.NewInt(int64(i)), dashdb.NewFloat(float64(i % 997))})
			}
			if err := cl.Insert(fields[1], rows); err != nil {
				fmt.Println("ERR", err)
				continue
			}
			fmt.Printf("OK loaded %d rows\n", n)
		default:
			fmt.Println("commands: status | fail <n> | remove <n> | add <n> [<addr>] | sql <stmt> | load <t> <rows> | quit")
		}
	}
}

// connectCluster forms a coordinator over running shard-server processes.
func connectCluster(connect, cfsDir string, shards, cores int, ramGB int64) *dashdb.Cluster {
	if cfsDir == "" {
		log.Fatal("net mode requires -clusterfs <dir> (the directory the shard servers share)")
	}
	fs, err := clusterfs.OpenDir(cfsDir)
	if err != nil {
		log.Fatal(err)
	}
	addrs := strings.Split(connect, ",")
	var nn []dashdb.NodeSpec
	for i, a := range addrs {
		nn = append(nn, dashdb.NodeSpec{
			Name:     fmt.Sprintf("node%c", 'A'+i%26),
			Addr:     strings.TrimSpace(a),
			Cores:    cores,
			MemBytes: ramGB << 30,
		})
	}
	if shards <= 0 {
		shards = len(nn)
	}
	cl, err := dashdb.ConnectCluster(nn, shards, fs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected to %d shard servers\n", len(nn))
	return cl
}

func printResult(r *dashdb.Result) {
	if r.Columns != nil {
		fmt.Println(strings.Join(r.Columns, "\t"))
		for _, row := range r.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, "\t"))
		}
	}
	fmt.Printf("OK (%d rows)\n", len(r.Rows))
}
