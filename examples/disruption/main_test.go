package main

// Example runs the disruption example and pins its whole output: every number
// it prints is seeded.
func Example() {
	main()
	// Output:
	// scenario        pairs      pings          COR          PLR    RAR_other      RAR_eye
	// calm            41260    2047518        70.6%        25.4%        49.1%        36.5%
	// outage          41121    2045124        70.2%        25.2%        48.6%        37.0%
	// diurnal         41260    2047518        71.6%        28.0%        51.3%        39.5%
	//   -> COR remedy value RISES under "diurnal": disruption makes shortcuts matter more
	// churn           41260    1780032        68.6%        24.2%        44.0%        34.3%
	// hub-stress      41259    2005518        69.6%        26.1%        49.3%        37.0%
}
