package experiments

import (
	"fmt"

	"semicont"
	"semicont/internal/report"
)

// TableFig3 renders the paper's Figure 3, the parameters of the two
// systems studied, as realized by this reproduction.
func TableFig3() *Output {
	small, large := semicont.SmallSystem(), semicont.LargeSystem()
	t := &report.Table{
		Title:   "Figure 3: parameters of the two video servers studied",
		Headers: []string{"parameter", "small", "large"},
	}
	t.AddRow("Number of Servers",
		fmt.Sprintf("%d", small.NumServers), fmt.Sprintf("%d", large.NumServers))
	t.AddRow("Bandwidth",
		fmt.Sprintf("%g Mb/s", small.ServerBandwidth), fmt.Sprintf("%g Mb/s", large.ServerBandwidth))
	t.AddRow("Video Length",
		lengthRange(small), lengthRange(large))
	t.AddRow("Number of Videos",
		fmt.Sprintf("%d", small.NumVideos), fmt.Sprintf("%d", large.NumVideos))
	t.AddRow("Average Copies Per Video",
		fmt.Sprintf("%g", small.AvgCopies), fmt.Sprintf("%g", large.AvgCopies))
	t.AddRow("Disk Capacity",
		gbString(small.DiskCapacity), gbString(large.DiskCapacity))
	t.AddRow("View Bandwidth",
		fmt.Sprintf("%g Mb/s", small.ViewRate), fmt.Sprintf("%g Mb/s", large.ViewRate))
	t.AddRow("SVBR",
		fmt.Sprintf("%.0f", small.SVBR()), fmt.Sprintf("%.0f", large.SVBR()))
	return &Output{ID: "t3", Title: "Figure 3 (parameter table)", Tables: []*report.Table{t}}
}

// lengthRange formats a system's video-length range for the parameter
// table.
func lengthRange(s semicont.System) string {
	return duration(s.MinVideoLength) + " - " + duration(s.MaxVideoLength)
}

// duration formats a span of seconds in hours from one hour up and in
// minutes below, as the paper's Figure 3 quotes video lengths.
func duration(sec float64) string {
	if sec >= 3600 {
		return fmt.Sprintf("%.2f h", sec/3600)
	}
	return fmt.Sprintf("%.1f min", sec/60)
}

// gbString formats Mb as decimal GB (1 GB = 8000 Mb) for the parameter
// table.
func gbString(mb float64) string {
	return fmt.Sprintf("%.0f GB", mb/8000)
}

// TableFig6 renders the paper's Figure 6, the policy matrix P1–P8.
func TableFig6() *Output {
	t := &report.Table{
		Title:   "Figure 6: policies evaluated",
		Headers: []string{"policy", "allocation", "migration", "client staging"},
	}
	for _, p := range semicont.PaperPolicies() {
		migr := "No Migr"
		if p.Migration {
			migr = "Migr"
		}
		t.AddRow(p.Name, p.Placement.String(), migr,
			fmt.Sprintf("%g%% Buffer", p.StagingFrac*100))
	}
	return &Output{ID: "t6", Title: "Figure 6 (policy table)", Tables: []*report.Table{t}}
}
